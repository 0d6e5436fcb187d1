"""Numpy mode sum: uniforms -> (X, Y), contraction over modes.

Every batch sampler draws a pair (X, Y) per realization from each mode's
own stream (rng.py) and sums X a_k + Y b_k over the modes k. Boyer (random
phase) modes use (cos theta, sin theta) with theta = 2 pi U, one uniform
per realization; modified (complex Gaussian) modes use a Box-Muller pair
of two uniforms. The rows (a_k, b_k) come from fields._mode_coefficients.
"""

from __future__ import annotations

import numpy as np

from . import rng

CHUNK = 32768  # default realizations per block of a mode sum


def accumulate_phase(out, uniforms, coef_a, coef_b):
    """out += cos(theta) coef_a + sin(theta) coef_b, theta = 2*pi*U."""
    theta = rng.TWO_PI * uniforms
    out += np.outer(np.cos(theta), coef_a) + np.outer(np.sin(theta), coef_b)


def accumulate_normal(out, uniforms, coef_a, coef_b):
    """out += u coef_a + v coef_b for Box-Muller pairs (u, v) of an (n, 2) block."""
    x, y = rng.boxmuller(uniforms[:, 0], uniforms[:, 1])
    out += np.outer(x, coef_a) + np.outer(y, coef_b)


def mode_sum(kind, coef_a, coef_b, n: int, seed: int, start: int,
             chunk: int, modes=None) -> np.ndarray:
    """Rows start..start+n-1 of sum_k X_k coef_a[k] + Y_k coef_b[k] for
    kind "boyer" or "modified". Row k reads stream modes[k] of ``seed``
    (stream k when ``modes`` is None), in chunks of ``chunk``
    realizations, so memory stays O(n)."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    normal = kind == "modified"
    block = rng.BLOCK_NORMAL_PAIR if normal else rng.BLOCK_PHASE
    accumulate = accumulate_normal if normal else accumulate_phase
    out = np.zeros((n, coef_a.shape[1]))
    for k, stream in enumerate(range(len(coef_a)) if modes is None else modes):
        gen = rng.mode_stream(seed, stream)
        rng.skip_uniforms(gen, start * block)
        for lo in range(0, n, chunk):
            m = min(chunk, n - lo)
            uni = gen.random((m, 2) if normal else m)
            accumulate(out[lo:lo + m], uni, coef_a[k], coef_b[k])
    return out
