"""Numpy mode sum: uniforms -> (X, Y), contraction over modes.

Every batch sampler draws a pair (X, Y) per realization from each mode's
own stream (rng.py) and sums X a_k + Y b_k over the modes k. Boyer (random
phase) modes use (cos theta, sin theta) with theta = 2 pi U, one uniform
per realization; modified (complex Gaussian) modes use a Box-Muller pair
of two uniforms. The rows (a_k, b_k) encode sigma, the evaluation phase
and, for the driven oscillator, the transfer function.
"""

from __future__ import annotations

import numpy as np

from . import rng


def phase_xy(uniforms):
    """(cos theta, sin theta) with theta = 2*pi*U, one U per sample."""
    theta = rng.TWO_PI * uniforms
    return np.cos(theta), np.sin(theta)


def normal_xy(uniforms):
    """(u, v) Box-Muller pairs from an (n, 2) uniform block."""
    return rng.boxmuller(uniforms[:, 0], uniforms[:, 1])


def accumulate_phase(out, uniforms, coef_a, coef_b):
    x, y = phase_xy(uniforms)
    out += np.outer(x, coef_a) + np.outer(y, coef_b)


def accumulate_normal(out, uniforms, coef_a, coef_b):
    x, y = normal_xy(uniforms)
    out += np.outer(x, coef_a) + np.outer(y, coef_b)


def mode_sum(kind, coef_a, coef_b, n: int, seed: int, start: int,
             chunk: int) -> np.ndarray:
    """Rows start..start+n-1 of sum_k X_k coef_a[k] + Y_k coef_b[k] for
    kind "boyer" or "modified". Mode k reads stream k of ``seed``, in
    chunks of ``chunk`` realizations, so memory stays O(n)."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    normal = kind == "modified"
    block = rng.BLOCK_NORMAL_PAIR if normal else rng.BLOCK_PHASE
    accumulate = accumulate_normal if normal else accumulate_phase
    out = np.zeros((n, coef_a.shape[1]))
    for k in range(len(coef_a)):
        gen = rng.mode_stream(seed, k)
        rng.skip_uniforms(gen, start * block)
        for lo in range(0, n, chunk):
            m = min(chunk, n - lo)
            uni = gen.random((m, 2) if normal else m)
            accumulate(out[lo:lo + m], uni, coef_a[k], coef_b[k])
    return out
