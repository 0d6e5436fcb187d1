"""Every batch sampler against its exact law on sparse grids.

On any finite grid an observable that is linear in the field has an exact
law. Its mode k enters with amplitude A_k = sigma_k |rho_k| |d.eps_k|,
where rho_k is the observable's per-mode response and d its direction. A
modified (complex Gaussian) mode gives a Gaussian of variance A_k^2, and a
Boyer (random phase) mode gives sqrt(2) A_k cos(psi) with psi uniform.
Written for the generating function mean(exp(-i s X)), the two laws are

    modified: exp(-s^2 sum_k A_k^2 / 2)
    Boyer:    prod_k J0(sqrt(2) A_k s)

The test computes both itself, from grid.sigma, grid.eps and a response it
writes out, and shares no code with the samplers past the grid. On grids
of 1-6 modes the Boyer law is far from Gaussian, so the comparison is
sharp. It checks laws, not bits, and so holds across stream layouts.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from zpfsim import (
    OscillatorParams,
    coordinate_ensemble,
    grid_from_kvectors,
    sample_field_batch,
)
from zpfsim.constants import PhysicalConstants

from reference import empirical_generating

CONSTS = PhysicalConstants()
N = 20_000
S_UNITS = np.array([0.5, 1.0, 2.0])  # s in units of 1 / sigma of the observable
BOUND = 6.0   # |pull| bound: a Gaussian pull exceeds it with probability 2e-9
# the share of examples whose Boyer pulls against the Gaussian must exceed
# BOUND; all 40 of the control's examples did (median max|pull| 23), and
# the exact-law pulls stayed below 2.3
CONTROL_SHARE = 0.75

EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True)


def boyer_law(amp, s):
    return np.prod(j0(np.sqrt(2.0) * np.outer(amp, s)), axis=0)


def gaussian_law(amp, s):
    return np.exp(-s**2 * np.sum(amp**2) / 2.0)


LAWS = {"boyer": boyer_law, "modified": gaussian_law}

kinds = st.sampled_from(sorted(LAWS))
seeds = st.integers(0, 2**32)
units = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi)).map(
    lambda ca: np.array([np.sqrt(1.0 - ca[0] ** 2) * np.cos(ca[1]),
                         np.sqrt(1.0 - ca[0] ** 2) * np.sin(ca[1]), ca[0]]))


@st.composite
def grids(draw):
    """1-6 modes: 1-6 wavevectors of one polarization or 1-3 of both."""
    pols = draw(st.sampled_from([(1,), (2,), (1, 2)]))
    kv = [draw(st.floats(0.5, 3.0)) * draw(units)
          for _ in range(draw(st.integers(1, 6 // len(pols))))]
    return grid_from_kvectors(kv, draw(st.floats(0.5, 8.0)), CONSTS, polarizations=pols)


@st.composite
def field_points(draw):
    """The field at (r, t): response exp(-i phi_k), phi_k = k.r - w_k t."""
    r = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    t = draw(st.floats(0.0, 10.0))

    def sample(kind, grid, seed):
        return sample_field_batch(kind, grid, r, t, N, seed).values

    return sample, lambda grid: np.exp(-1j * (grid.k @ r - grid.omega * t))


@st.composite
def oscillator_axes(draw):
    """The oscillator coordinate at t, nu0 != 1: response exp(i w t) h(w),
    h(w) = Gamma' / (nu0^2 - w^2 + i Gamma w^3)."""
    p = OscillatorParams(nu0=draw(st.floats(0.3, 0.9) | st.floats(1.1, 3.0)),
                         gamma=draw(st.floats(0.01, 0.3)),
                         gamma_prime=draw(st.floats(0.5, 2.0)), mass=1.0)
    t = draw(st.floats(0.0, 10.0))

    def sample(kind, grid, seed):
        return coordinate_ensemble(kind, grid, p, t, N, seed).values

    def response(grid):
        w = grid.omega
        return np.exp(1j * w * t) * p.gamma_prime / (p.nu0**2 - w**2 + 1j * p.gamma * w**3)

    return sample, response


observables = st.one_of(field_points(), oscillator_axes())


def pulls(kind, grid, d, observable, seed, law):
    """(Re g_emp(s) - law(s)) / se at s = S_UNITS / sigma."""
    sample, response = observable
    scale = grid.sigma * np.abs(response(grid))
    amp = scale * np.abs(grid.eps @ d)
    # a direction nearly orthogonal to every mode leaves only rounding noise
    assume(np.sum(amp**2) > 1e-4 * np.sum(scale**2))
    s = S_UNITS / np.sqrt(np.sum(amp**2))
    g, se = empirical_generating(sample(kind, grid, seed) @ d, s)
    return (g.real - law(amp, s)) / se


@EXAMPLES
@given(kind=kinds, grid=grids(), d=units, observable=observables, seed=seeds)
def test_sampler_follows_exact_law(kind, grid, d, observable, seed):
    assert np.max(np.abs(pulls(kind, grid, d, observable, seed, LAWS[kind]))) < BOUND


def test_boyer_departs_from_gaussian():
    """Positive control: the same pulls tell a Boyer sample from a Gaussian."""
    over = []

    @settings(EXAMPLES, max_examples=40)
    @given(grid=grids(), d=units, observable=observables, seed=seeds)
    def collect(grid, d, observable, seed):
        over.append(np.max(np.abs(pulls("boyer", grid, d, observable, seed,
                                        gaussian_law))) > BOUND)

    collect()
    assert len(over) >= 30 and np.mean(over) >= CONTROL_SHARE
