"""Property tests of the reproducibility contract.

``(kind, grid, seed)`` fixes the bits of every batch sampler: splitting the
realization range ``[0, n)`` into ``(start, n_i)`` pieces, or patching the
mode sum's block geometry (``kernels.CHUNK`` rows, ``kernels.MODE_BLOCK``
mode-samples), must give the same array, and row 0 must agree with the slow
per-realization reference of tests/reference.py (draw_realization), which
anchors the stream positions themselves.
Nor may the number of threads a mode sum splits its rows over change them.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpfsim import (
    OscillatorParams,
    build_grid,
    coordinate_ensemble,
    sample_field_batch,
    sample_mode_batch,
)
from zpfsim import kernels
from zpfsim.constants import PhysicalConstants

from reference import coordinate_sample, draw_realization, eval_field, mode_amplitude

CONSTS = PhysicalConstants()
GRID = build_grid(2.0 * np.pi, 1.5, CONSTS)  # 36 modes
PARAMS = OscillatorParams(nu0=1.0, gamma=0.05, gamma_prime=1.0, mass=1.0)
R = np.array([0.3, -0.1, 0.2])
T = 0.7

PROPERTY = settings(max_examples=50, deadline=None)

kinds = st.sampled_from(["boyer", "modified"])
seeds = st.integers(0, 2**32)


@st.composite
def splits(draw, max_n=40):
    """(n, [(start, n_i), ...]) covering [0, n) in order."""
    n = draw(st.integers(1, max_n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=4)) if n > 1 else set()
    edges = [0, *sorted(cuts), n]
    return n, [(lo, hi - lo) for lo, hi in zip(edges[:-1], edges[1:])]


def joined(sample, pieces):
    return np.concatenate([sample(start, m) for start, m in pieces])


def block_geometry(chunk, modes):
    """Patch the mode sum to blocks of ``modes`` modes x ``chunk`` rows (more
    modes for a range shorter than ``chunk``)."""
    return mock.patch.multiple(kernels, CHUNK=chunk, MODE_BLOCK=modes * chunk)


def block_examples(test):
    """Blocks of 1 mode, of 5 modes (36 = 7 x 5 + 1 leaves a 1-mode tail
    block) and of all modes, for both kinds; the 9-row piece ends in a 1-row
    chunk."""
    for kind in ("boyer", "modified"):
        for modes in (1, 5, len(GRID)):
            test = example(kind=kind, seed=5, split=(21, [(0, 9), (9, 12)]), chunk=4,
                           modes=modes)(test)
    return test


@PROPERTY
@given(kind=kinds, seed=seeds, split=splits(), mode=st.integers(0, len(GRID) - 1))
def test_mode_batch_split_invariant(kind, seed, split, mode):
    n, pieces = split
    full = sample_mode_batch(kind, GRID, mode, R, T, n, seed).values
    parts = joined(lambda s, m: sample_mode_batch(kind, GRID, mode, R, T, m, seed,
                                                  start=s).values, pieces)
    assert np.array_equal(full, parts)
    slow = mode_amplitude(draw_realization(kind, GRID, seed), GRID, mode, R, T)
    assert np.isclose(full[0], slow, rtol=1e-12, atol=1e-12 * abs(GRID.sigma[mode]))


@PROPERTY
@given(kind=kinds, seed=seeds, split=splits(), chunk=st.integers(1, 50),
       modes=st.integers(1, len(GRID) + 4))
@block_examples
def test_field_batch_split_and_chunk_invariant(kind, seed, split, chunk, modes):
    n, pieces = split
    full = sample_field_batch(kind, GRID, R, T, n, seed).values
    with block_geometry(chunk, modes):
        parts = joined(lambda s, m: sample_field_batch(kind, GRID, R, T, m, seed,
                                                       start=s).values, pieces)
    assert np.array_equal(full, parts)
    slow = eval_field(draw_realization(kind, GRID, seed), GRID, R, T)
    assert np.allclose(full[0], slow, rtol=1e-10, atol=1e-12 * GRID.sigma.sum())


@PROPERTY
@given(kind=kinds, seed=seeds, split=splits(), chunk=st.integers(1, 50),
       modes=st.integers(1, len(GRID) + 4))
@block_examples
def test_coordinate_ensemble_split_and_chunk_invariant(kind, seed, split, chunk, modes):
    n, pieces = split
    full = coordinate_ensemble(kind, GRID, PARAMS, T, n, seed).values
    with block_geometry(chunk, modes):
        parts = joined(lambda s, m: coordinate_ensemble(kind, GRID, PARAMS, T, m, seed,
                                                        start=s).values, pieces)
    assert np.array_equal(full, parts)
    slow = coordinate_sample(draw_realization(kind, GRID, seed), GRID, PARAMS, T)
    scale = np.abs(full).max() + np.abs(slow).max()
    assert np.allclose(full[0], slow, rtol=1e-10, atol=1e-12 * scale)


# 50 rows in chunks of 7: the cuts at 25 (two threads) and at 16 and 33
# (three threads) all fall inside a chunk of the one-thread sum
THREAD_N, THREAD_CHUNK, THREAD_START = 50, 7, 4


@pytest.mark.parametrize("kind", ["boyer", "modified"])
@pytest.mark.parametrize("modes, shape", [(range(5), (5, 3)), ([11], (1, 1))],
                         ids=["all-modes", "single-mode"])
def test_mode_sum_thread_invariant(monkeypatch, kind, modes, shape):
    gen = np.random.default_rng(3)
    coef_a, coef_b = gen.normal(size=shape), gen.normal(size=shape)
    ranges = []
    sum_rows = kernels._sum_rows

    def traced(out, normal, coef_a, coef_b, keys, start):
        sum_rows(out, normal, coef_a, coef_b, keys, start)
        ranges.append((start - THREAD_START, len(out), threading.get_ident()))

    monkeypatch.setattr(kernels, "_sum_rows", traced)
    monkeypatch.setattr(kernels, "MIN_ROWS", 8)
    monkeypatch.setattr(kernels, "CHUNK", THREAD_CHUNK)
    threads = threading.active_count()

    def mode_sum(n, start):
        return kernels.mode_sum(kind, coef_a, coef_b, modes, n, 9, start)

    rows = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "WORKERS", workers)
        ranges.clear()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
        try:
            rows[workers] = mode_sum(THREAD_N, THREAD_START)
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == threads
        assert len(ranges) == workers
        # the calling thread sums the first range and pool threads the rest
        assert [ident == threading.get_ident() for _, _, ident in sorted(ranges)] == \
            [True] + [False] * (workers - 1)
        assert np.array_equal(rows[workers], rows[1])
        cuts = sorted(lo for lo, _, _ in ranges)[1:]
        assert all(cut % THREAD_CHUNK for cut in cuts)
        for j in (j for cut in cuts for j in (cut - 1, cut)):
            assert np.array_equal(mode_sum(1, THREAD_START + j)[0], rows[workers][j])
