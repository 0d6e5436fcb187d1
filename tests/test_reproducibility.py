"""Property tests of the reproducibility contract.

``(kind, grid, seed)`` fixes the bits of every batch sampler: splitting the
realization range ``[0, n)`` into ``(start, n_i)`` pieces, or changing the
chunk size, must give the same array, and row 0 must agree with the slow
path (draw_realization), which anchors the stream positions themselves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfsim import (
    OscillatorParams,
    build_grid,
    coordinate_ensemble,
    coordinate_sample,
    draw_realization,
    eval_field,
    mode_amplitude,
    sample_field_batch,
    sample_mode_batch,
)
from zpfsim.constants import PhysicalConstants

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
@given(kind=kinds, seed=seeds, split=splits(), chunk=st.integers(1, 50))
def test_field_batch_split_and_chunk_invariant(kind, seed, split, chunk):
    n, pieces = split
    full = sample_field_batch(kind, GRID, R, T, n, seed).values
    parts = joined(lambda s, m: sample_field_batch(kind, GRID, R, T, m, seed, start=s,
                                                   chunk=chunk).values, pieces)
    assert np.array_equal(full, parts)
    slow = eval_field(draw_realization(kind, GRID, seed), GRID, R, T)
    assert np.allclose(full[0], slow, rtol=1e-10, atol=1e-12 * GRID.sigma.sum())


@PROPERTY
@given(kind=kinds, seed=seeds, split=splits(), chunk=st.integers(1, 50))
def test_coordinate_ensemble_split_and_chunk_invariant(kind, seed, split, chunk):
    n, pieces = split
    full = coordinate_ensemble(kind, GRID, PARAMS, T, n, seed).values
    parts = joined(lambda s, m: coordinate_ensemble(kind, GRID, PARAMS, T, m, seed,
                                                    start=s, chunk=chunk).values, pieces)
    assert np.array_equal(full, parts)
    slow = coordinate_sample(draw_realization(kind, GRID, seed), GRID, PARAMS, T)
    scale = np.abs(full).max() + np.abs(slow).max()
    assert np.allclose(full[0], slow, rtol=1e-10, atol=1e-12 * scale)
