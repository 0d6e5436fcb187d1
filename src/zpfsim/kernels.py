"""Numpy mode sum: uniforms -> (X, Y), contraction over modes, row split.

Every batch sampler draws a pair (X, Y) per realization from each mode's
own stream (rng.py) and sums X a_k + Y b_k over the modes k. Boyer (random
phase) modes use (cos theta, sin theta) with theta = 2 pi U, one uniform
per realization; modified (complex Gaussian) modes use a Box-Muller pair
of two uniforms. Both kinds get their (cos, sin) from rng.unit_circle, the
half-angle form t = tan(pi U), cos = (1 - t^2)/(1 + t^2), sin = 2t/(1 + t^2),
which costs a fraction of np.cos plus np.sin. The rows (a_k, b_k) come
from fields._mode_coefficients.

The accumulator is column-major, so each output axis out[:, i] is one
contiguous column. The contraction runs one axis at a time on contiguous
1-D arrays: t = X a_k[i], t += Y b_k[i], out[:, i] += t. Per element these
are the multiplies and adds of out += outer(X, a_k) + outer(Y, b_k), in the
same order (numpy fuses no multiply-add), so they give the same bits; the
memory layout changes no value either.

mode_sum splits the rows [0, n) into up to WORKERS contiguous ranges of at
least MIN_ROWS rows and sums each range in its own thread; numpy's Philox
fill and its ufuncs release the GIL, and each thread writes only its own
rows. A row's uniforms are fixed by its realization index in each mode's
counter-based stream, wherever its range begins, and each row is summed
over the modes in order by one thread. So the bits depend neither on the
number of threads or CPUs nor on the block size CHUNK, which the tests
patch to check this.
"""

from __future__ import annotations

import os

import numpy as np

from . import rng

CHUNK = 8192  # realizations per block of a mode sum
MIN_ROWS = 4096  # fewest rows worth a thread: a thread re-creates every mode's stream
# threads a mode sum may use: the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _contract(out, x, y, coef_a, coef_b):
    """out += outer(x, coef_a) + outer(y, coef_b), one output axis at a time."""
    for i in range(out.shape[1]):
        t = x * coef_a[i]
        t += y * coef_b[i]
        out[:, i] += t


def accumulate_phase(out, uniforms, coef_a, coef_b):
    """out += cos(theta) coef_a + sin(theta) coef_b, theta = 2*pi*U."""
    _contract(out, *rng.unit_circle(uniforms), coef_a, coef_b)


def accumulate_normal(out, uniforms, coef_a, coef_b):
    """out += u coef_a + v coef_b for Box-Muller pairs (u, v) of an (n, 2) block."""
    x, y = rng.boxmuller(uniforms[:, 0], uniforms[:, 1])
    _contract(out, x, y, coef_a, coef_b)


def _sum_rows(out, normal, coef_a, coef_b, streams, seed, start):
    """out += rows start..start+len(out)-1 of the mode sum, mode by mode."""
    block = rng.BLOCK_NORMAL_PAIR if normal else rng.BLOCK_PHASE
    accumulate = accumulate_normal if normal else accumulate_phase
    n = len(out)
    for k, stream in enumerate(streams):
        gen = rng.mode_stream(seed, stream)
        rng.skip_uniforms(gen, start * block)
        for lo in range(0, n, CHUNK):
            m = min(CHUNK, n - lo)
            uni = gen.random((m, 2) if normal else m)
            accumulate(out[lo:lo + m], uni, coef_a[k], coef_b[k])


def mode_sum(kind, coef_a, coef_b, streams, n: int, seed: int, start: int) -> np.ndarray:
    """Rows start..start+n-1 of sum_k X_k coef_a[k] + Y_k coef_b[k] for
    kind "boyer" or "modified". Row k reads stream streams[k] of ``seed``
    in blocks of CHUNK realizations, so memory stays O(n). An error in any
    thread is raised here once every thread has finished."""
    out = np.zeros((n, coef_a.shape[1]), order="F")  # out[:, i] contiguous
    args = (kind == "modified", coef_a, coef_b, streams, seed)
    parts = max(1, min(WORKERS, n // MIN_ROWS))
    if parts == 1:
        _sum_rows(out, *args, start)
        return out
    # imported here, not at the top: scipy does not load it, so importing
    # zpfsim stays as cheap as before, and a serial sum never needs it
    from concurrent.futures import ThreadPoolExecutor

    edges = [n * p // parts for p in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:  # this thread sums the first range
        done = [pool.submit(_sum_rows, out[lo:hi], *args, start + lo)
                for lo, hi in zip(edges[1:-1], edges[2:])]
        _sum_rows(out[:edges[1]], *args, start)
    for future in done:
        future.result()
    return out
