"""Numpy mode sum: uniforms -> (X, Y), contraction over modes, row split.

Every batch sampler draws a pair (X, Y) per realization from each mode's
own stream (rng.py) and sums X a_k + Y b_k over the modes k. Boyer (random
phase) modes use (cos theta, sin theta) with theta = 2 pi U, one uniform
per realization; modified (complex Gaussian) modes use a Box-Muller pair
of two uniforms. Both kinds get their (cos, sin) from rng.unit_circle, the
half-angle form t = tan(pi U), cos = (1 - t^2)/(1 + t^2), sin = 2t/(1 + t^2),
which costs a fraction of np.cos plus np.sin. The rows (a_k, b_k) come
from fields._mode_coefficients.

The mode sum runs in blocks of M modes x m realizations, MODE_BLOCK
mode-samples in all (m = CHUNK realizations, or fewer when the range is
shorter), so each numpy call covers a block rather than one mode: a
thread then spends its time in long calls that release the GIL, not in
the interpreter. Per block: each mode's stream fills its row of one
contiguous (M, m) buffer of uniforms ((M, m, 2) for Box-Muller), the
transform runs once on the whole block, and the contraction forms
t = X a_k[i] + Y b_k[i] for all M modes of one output axis i at a time.
The accumulator is column-major, so out[:, i] is one contiguous column,
and the block is added into it as a left fold in mode order,
out[:, i] += t[k] for k = 0, 1, ... . Per element these are the
multiplies and adds of out += outer(X, a_k) + outer(Y, b_k) summed mode by
mode (numpy fuses no multiply-add), so the block geometry and the memory
layout change no bit. The transcendentals (tan, log1p) run on contiguous
rows of the block's work buffers, which _sum_rows allocates once, since
numpy's loop for a strided view can round differently.

mode_sum computes every stream's Philox key once (rng.mode_keys), splits
the rows [0, n) into up to WORKERS contiguous ranges of at least MIN_ROWS
rows and sums each range in its own thread; numpy's Philox fill and its
ufuncs release the GIL, and each thread writes only its own rows. A thread
owns one generator per row of its blocks and sets it to each block's
streams by state assignment (rng.position); no generator is shared. A
row's uniforms are fixed by its realization index in each mode's
counter-based stream, wherever its range begins, and each row is summed
over the modes in order by one thread. So the bits depend neither on the
number of threads or CPUs nor on the block sizes CHUNK and MODE_BLOCK,
which the tests patch to check this.
"""

from __future__ import annotations

import contextvars
import os

import numpy as np

from . import rng

CHUNK = 8192  # most realizations per block of a mode sum
MODE_BLOCK = 1 << 15  # mode-samples (modes x realizations) per block of a mode sum
# fewest rows worth a thread; on 2 CPUs a two-thread sum of 160 or 1152 modes
# first beats one thread at 1024-2048 rows per thread (stream positioning is
# about 2 us per mode and thread)
MIN_ROWS = 4096
# threads a mode sum may use: the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _contract(out, x, y, coef_a, coef_b, work):
    """out += outer(x[j], coef_a[j]) + outer(y[j], coef_b[j]) for the block's
    modes j in order, one output axis at a time; work holds two arrays of
    x's shape."""
    t, ty = work
    for i in range(out.shape[1]):
        np.multiply(x, coef_a[:, i, None], out=t)
        np.multiply(y, coef_b[:, i, None], out=ty)
        t += ty
        col = out[:, i]
        for row in t:   # a left fold in mode order, not np.add.reduce's pairwise sum
            col += row


def accumulate_phase(out, uniforms, coef_a, coef_b, work):
    """out += cos(theta) coef_a[j] + sin(theta) coef_b[j] summed over the
    block's modes j in order, theta = 2*pi*U. uniforms holds len(out)
    phases of each of the len(coef_a) modes in turn; work is a float
    buffer of at least 4 * len(uniforms) elements."""
    shape = (len(coef_a), len(out))
    w = work[:4 * len(uniforms)].reshape(4, *shape)
    x, y = rng.unit_circle(uniforms.reshape(shape), w[:3])
    _contract(out, x, y, coef_a, coef_b, w[2:])


def accumulate_normal(out, uniforms, coef_a, coef_b, work):
    """out += u coef_a[j] + v coef_b[j] summed over the block's modes j in
    order, for the Box-Muller pairs (u, v) of an (n, 2) block of uniforms
    that holds len(out) pairs of each mode in turn; work as for
    accumulate_phase."""
    shape = (len(coef_a), len(out))
    w = work[:4 * len(uniforms)].reshape(4, *shape)
    pairs = uniforms.reshape(*shape, 2)
    x, y = rng.boxmuller(pairs[..., 0], pairs[..., 1], w)
    _contract(out, x, y, coef_a, coef_b, w[2:])


def _sum_rows(out, normal, coef_a, coef_b, keys, start):
    """out += rows start..start+len(out)-1 of the mode sum over the streams
    of ``keys``, in blocks of min(CHUNK, len(out)) rows of as many modes as
    MODE_BLOCK holds."""
    width = rng.BLOCK_NORMAL_PAIR if normal else rng.BLOCK_PHASE
    draws = (-1, width) if normal else (-1,)   # len() of a block counts its mode-samples
    accumulate = accumulate_normal if normal else accumulate_phase
    n = len(out)
    rows = max(1, min(CHUNK, n))
    modes = max(1, min(len(keys), MODE_BLOCK // rows))
    # allocated once: a fresh block-sized array per block pays for mmap and page faults
    uni = np.empty(modes * rows * width)
    work = np.empty(4 * modes * rows)
    gens = [rng.generator() for _ in range(modes)]   # this thread's own, one per row of a block
    for k in range(0, len(keys), modes):
        block_keys = keys[k:k + modes]
        for gen, key in zip(gens, block_keys):
            rng.position(gen, key, start * width)
        for lo in range(0, n, rows):
            m = min(rows, n - lo)
            block = uni[:len(block_keys) * m * width].reshape(len(block_keys), m * width)
            for gen, row in zip(gens, block):
                gen.random(out=row)
            accumulate(out[lo:lo + m], block.reshape(draws),
                       coef_a[k:k + modes], coef_b[k:k + modes], work)


def mode_sum(kind, coef_a, coef_b, streams, n: int, seed: int, start: int) -> np.ndarray:
    """Rows start..start+n-1 of sum_k X_k coef_a[k] + Y_k coef_b[k] for
    kind "boyer" or "modified". Row k reads stream streams[k] of ``seed``
    in blocks of MODE_BLOCK mode-samples, so memory stays O(n). An error in
    any thread is raised here once every thread has finished."""
    out = np.zeros((n, coef_a.shape[1]), order="F")  # out[:, i] contiguous
    args = (kind == "modified", coef_a, coef_b, rng.mode_keys(seed, streams))
    parts = max(1, min(WORKERS, n // MIN_ROWS))
    if parts == 1:
        _sum_rows(out, *args, start)
        return out
    # imported here, not at the top: scipy does not load it, so importing
    # zpfsim stays as cheap as before, and a serial sum never needs it
    from concurrent.futures import ThreadPoolExecutor

    edges = [n * p // parts for p in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:  # this thread sums the first range
        # each worker runs in a copy of this thread's context, so it keeps
        # the caller's np.errstate (a context variable)
        done = [pool.submit(contextvars.copy_context().run, _sum_rows, out[lo:hi], *args,
                            start + lo)
                for lo, hi in zip(edges[1:-1], edges[2:])]
        _sum_rows(out[:edges[1]], *args, start)
    for future in done:
        future.result()
    return out
