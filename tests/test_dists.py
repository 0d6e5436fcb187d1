import bisect
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import j0, ndtr

from zpfsim import (
    Arcsine,
    BesselProductGF,
    GaussianGF,
    GaussianMode,
    InsufficientRangeError,
    OscillatorParams,
    build_grid,
    grid_from_kvectors,
    hermite_function,
    invert_characteristic,
    quantum_oscillator_pdf,
    resonance_shell_grid,
    total_field_sigma,
    transfer,
)
from zpfsim import kernels
from zpfsim.constants import PhysicalConstants
from zpfsim.dists import (
    _BLOCK_ELEMENTS,
    FiniteLaw,
    _chirp_z,
    _fft_length,
    _ndtr,
    boyer_generating,
)
from zpfsim.fields import FieldKind

from reference import binned_energy_density, energy_density_bin_average

CONSTS = PhysicalConstants()


def arcsine_quadrature_mass(amplitude, upper):
    # endpoint-transform oracle: x = A sin(t) removes the edge singularity
    t_hi = np.arcsin(np.clip(upper / amplitude, -1, 1))
    val, _ = integrate.quad(
        lambda t: Arcsine(amplitude).pdf(amplitude * np.sin(t))
        * amplitude * np.cos(t),
        -np.pi / 2, t_hi)
    return val


class TestClassicalOscillator:
    def test_center_value(self):
        assert Arcsine(1.0).pdf(0.0) == pytest.approx(1 / np.pi)

    def test_outside_support(self):
        assert Arcsine(1.0).pdf(1.5) == 0.0

    def test_endpoint_unbounded(self):
        assert np.isinf(Arcsine(1.0).pdf(1.0))

    def test_normalizes(self):
        assert arcsine_quadrature_mass(1.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("amplitude", [1e300, 1e-300])
    def test_rejects_amplitude_with_unrepresentable_square(self, amplitude):
        # the density divides by sqrt(A^2 - x^2): A^2 must be a finite normal double
        with pytest.raises(ValueError, match="amplitude"):
            Arcsine(amplitude).pdf(0.0)


class TestArcsineCdf:
    def test_values(self):
        assert Arcsine(2.0).cdf(0.0) == 0.5
        assert Arcsine(2.0).cdf(2.0) == 1.0
        assert Arcsine(2.0).cdf(-2.5) == 0.0
        assert Arcsine(1.0).cdf(1.0 / np.sqrt(2.0)) == pytest.approx(0.75)

    def test_matches_quadrature(self):
        for upper in (-0.6, 0.2, 0.9):
            assert Arcsine(1.0).cdf(upper) == pytest.approx(
                arcsine_quadrature_mass(1.0, upper), abs=1e-8)

    def test_precondition(self):
        with pytest.raises(ValueError, match="amplitude must be strictly positive"):
            Arcsine(-1.0).cdf(0.0)

    @pytest.mark.parametrize("amplitude", [2.0, np.sqrt(2.0) * 0.7, 1e-3, 37.1])
    def test_variance_and_generating_function(self, amplitude):
        # the one-row Boyer law: variance A^2/2 and generating function J0(A s)
        law = Arcsine(amplitude)
        assert law.variance == amplitude * amplitude / 2.0
        s = np.linspace(-40.0, 40.0, 1001)
        assert np.array_equal(law(s), j0(amplitude * s))
        assert law(0.3) == j0(amplitude * 0.3)


@pytest.mark.parametrize("method", ["pdf", "cdf"])
def test_laws_without_closed_form_refuse_pdf_and_cdf(small_grid, method):
    for law in (FiniteLaw(FieldKind.BOYER, np.array([1.0, 2.0])),
                FiniteLaw.of("boyer", small_grid, (0.3, 0.5, 0.8))):
        with pytest.raises(ValueError, match="no closed-form pdf or cdf"):
            getattr(law, method)(0.0)
    # a modified law of variance 0, along a direction no mode's field has
    one = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=1.0, polarizations=(1,))
    with pytest.raises(ValueError, match="modified law of variance 0.0 has no pdf or cdf"):
        getattr(FiniteLaw.of("modified", one, (0.0, 1.0, 0.0)), method)(0.0)


class TestQuantumOscillator:
    def test_ground_state_center(self):
        assert quantum_oscillator_pdf(0, 0.0, 1.0) == pytest.approx(1 / np.sqrt(np.pi))

    def test_first_excited_node(self):
        assert quantum_oscillator_pdf(1, 0.0, 3.0) == 0.0

    def test_ground_state_closed_form(self):
        x = np.linspace(-4, 4, 1001)
        for alpha in (1.0, 5.0):
            closed = alpha / np.sqrt(np.pi) * np.exp(-(alpha * x) ** 2)
            assert np.max(np.abs(quantum_oscillator_pdf(0, x, alpha) - closed)) < 1e-12

    def test_n12_normalization_and_nodes(self):
        mass, _ = integrate.quad(lambda x: quantum_oscillator_pdf(12, x, 5.0),
                                 -3.0, 3.0, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-6)
        x = np.linspace(-1.2, 1.2, 20001)
        wave = hermite_function(12, 5.0 * x)
        sign_changes = int(np.sum(np.sign(wave[1:]) * np.sign(wave[:-1]) < 0))
        assert sign_changes == 12

    def test_recurrence_matches_closed_form_small_n(self):
        # cross-check against the explicit 2^n n! normalization while it is stable
        from math import factorial
        from numpy.polynomial.hermite import hermval
        x = np.linspace(-2, 2, 101)
        for n in range(9):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            closed = (hermval(x, coeffs) ** 2 * np.exp(-x**2)
                      / (np.sqrt(np.pi) * 2**n * factorial(n)))
            assert np.allclose(quantum_oscillator_pdf(n, x, 1.0), closed,
                               rtol=1e-10, atol=1e-13)

    def test_level_cap(self):
        with pytest.raises(ValueError, match="170"):
            quantum_oscillator_pdf(171, 0.0, 1.0)
        quantum_oscillator_pdf(170, 0.0, 1.0)  # at the cap: fine

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            quantum_oscillator_pdf(-1, 0.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be strictly positive"):
            quantum_oscillator_pdf(0, 0.0, alpha)

    def test_internode_averages_track_classical(self):
        # local averages over inter-node intervals follow the fixed-energy
        # classical law inside |x| <= 0.9
        nodes = np.sort(np.polynomial.hermite.hermgauss(12)[0]) / 5.0
        for a, b in zip(nodes[:-1], nodes[1:]):
            if a < -0.9 or b > 0.9:
                continue
            q, _ = integrate.quad(lambda x: quantum_oscillator_pdf(12, x, 5.0), a, b,
                                  limit=200)
            cl, _ = integrate.quad(lambda x: Arcsine(1.0).pdf(x), a, b)
            assert abs(q - cl) / cl < 0.15


class TestGaussianMode:
    def test_one_law(self):
        # the generating function is a call on the same law object: the
        # written-out exp(-s^2 sigma^2 / 2), a float for a scalar s
        s = np.linspace(-4.0, 4.0, 33)
        assert GaussianGF is GaussianMode
        # the one-row laws are FiniteLaws
        for law in (GaussianMode(0.7), GaussianGF(0.7), Arcsine(1.0)):
            assert type(law) is FiniteLaw and law.amplitudes.shape == (1,)
        assert np.array_equal(GaussianMode(0.7)(s), np.exp(-(s**2) * 0.7**2 / 2.0))
        value = GaussianMode(0.7)(1.3)
        assert isinstance(value, float) and value == np.exp(-(1.3**2) * 0.7**2 / 2.0)

    def test_center(self):
        assert GaussianMode(1.0).pdf(0.0) == pytest.approx(1 / np.sqrt(2 * np.pi))

    def test_symmetric(self):
        x = np.linspace(0.1, 3.0, 30)
        assert np.array_equal(GaussianMode(0.7).pdf(x), GaussianMode(0.7).pdf(-x))

    def test_variance_by_gauss_hermite(self):
        # oracle: E^2 moment via Gauss-Hermite nodes, E = sqrt(2) sigma t
        nodes, weights = np.polynomial.hermite.hermgauss(80)
        for sigma in (0.5, 1.0, 2.0):
            var = np.sum(weights * (np.sqrt(2) * sigma * nodes) ** 2) / np.sqrt(np.pi)
            assert var == pytest.approx(sigma**2, rel=1e-12)
            quad_var, _ = integrate.quad(
                lambda e: e**2 * GaussianMode(sigma).pdf(e), -10 * sigma, 10 * sigma)
            assert quad_var == pytest.approx(sigma**2, abs=1e-6)


class TestTotalFieldSigma:
    def test_value(self):
        assert total_field_sigma(1.0, CONSTS) ** 2 == pytest.approx(1 / (24 * np.pi**2))

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, np.nan])
    def test_precondition(self, cutoff):
        with pytest.raises(ValueError, match="omega_cutoff must be strictly positive"):
            total_field_sigma(cutoff, CONSTS)

    def test_quartic_scaling(self):
        r = total_field_sigma(2.0, CONSTS) ** 2 / total_field_sigma(1.0, CONSTS) ** 2
        assert r == pytest.approx(16.0, rel=1e-12)

    def test_lattice_component_variance_converges(self):
        cutoff = 2.0
        target = total_field_sigma(cutoff, CONSTS) ** 2
        errs = []
        for box in (4 * np.pi, 8 * np.pi, 16 * np.pi):
            grid = build_grid(box, cutoff, CONSTS)
            errs.append(abs(FiniteLaw.of("modified", grid, [1, 0, 0]).variance / target - 1.0))
        assert errs[-1] < 0.01
        assert errs[0] > errs[-1]


class TestGeneratingFunctions:
    def test_gaussian_values(self):
        assert GaussianMode(3.0)(0.0) == 1.0
        assert GaussianMode(1.0)(1.0) == pytest.approx(np.exp(-0.5))

    def test_product_equals_lattice_sum(self, small_grid):
        # product over modes of per-mode Gaussian factors = exp of the summed
        # component variance
        shat = np.array([0.0, 0.0, 1.0])
        s = 1.3
        proj = small_grid.eps @ shat
        per_mode = np.exp(-(s * small_grid.sigma * proj) ** 2 / 2.0)
        assert np.prod(per_mode) == pytest.approx(
            FiniteLaw.of("modified", small_grid, shat)(s), rel=1e-12)

    def test_boyer_single_mode_vs_phase_average(self):
        # J0 oracle: numerical average of exp(-i z cos(theta)) over the phase
        grid = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=0.5, constants=CONSTS,
                                  polarizations=(1,))
        shat = np.array([1.0, 0.0, 0.0])  # along eps1
        sigma = float(grid.sigma[0])
        for s in (0.5, 1.0, 1.0 / (np.sqrt(2) * sigma)):
            z = np.sqrt(2.0) * sigma * s
            oracle = integrate.quad(
                lambda th: np.cos(z * np.cos(th)) / (2 * np.pi), 0, 2 * np.pi)[0]
            assert boyer_generating(s, shat, grid) == pytest.approx(oracle, abs=1e-10)

    def test_boyer_j0_sqrt2_value(self):
        grid = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=0.5, constants=CONSTS,
                                  polarizations=(1,))
        # sigma = 1 here, so s = 1 along eps1 probes J0(sqrt(2)); the series
        # sum_m (-1)^m (1/2)^m / (m!)^2 gives 0.55913414
        from math import factorial
        assert float(grid.sigma[0]) == pytest.approx(1.0)
        series = sum((-1) ** m * 0.5**m / factorial(m) ** 2 for m in range(20))
        assert series == pytest.approx(0.55913414, abs=1e-8)
        assert boyer_generating(1.0, [1.0, 0, 0], grid) == pytest.approx(series, abs=1e-12)

    def test_unit_at_zero_and_bounded(self, small_grid):
        s = np.linspace(0, 20, 101)
        for gf in (GaussianGF(0.8), BesselProductGF(small_grid)):
            vals = gf(s)
            assert vals[0] == pytest.approx(1.0)
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_boyer_approaches_continuum_gaussian(self):
        cutoff = 1.5
        grid = build_grid(16 * np.pi, cutoff, CONSTS)
        sig_e = total_field_sigma(cutoff, CONSTS)
        s = np.linspace(0, 5 / sig_e, 81)
        dev = np.abs(boyer_generating(s, [0, 0, 1], grid)
                     - GaussianMode(sig_e)(s))
        assert np.max(dev) < 0.01

    def test_boyer_gaussian_deviation_scales_inverse_volume(self):
        cutoff = 1.5
        shat = [0.0, 0.0, 1.0]
        devs = []
        for factor in (1.0, 4.0, 16.0):
            grid = build_grid(4 * np.pi * factor ** (1 / 3), cutoff, CONSTS)
            sig_e = total_field_sigma(cutoff, CONSTS)
            s = np.linspace(0, 5 / sig_e, 101)
            dev = np.abs(boyer_generating(s, shat, grid)
                         - FiniteLaw.of("modified", grid, shat)(s))
            devs.append(np.max(dev))
        assert devs[0] > devs[1] > devs[2]
        for ratio in (devs[0] / devs[1], devs[1] / devs[2]):
            assert 3.0 < ratio < 7.0


def per_mode_product(s, direction, grid):
    """Reference Bessel product: one J0 factor per mode and per s."""
    d = np.asarray(direction, dtype=float)
    scale = np.sqrt(2.0) * grid.sigma * (grid.eps @ (d / np.linalg.norm(d)))
    return np.prod(j0(np.outer(s, scale)), axis=1)


class TestGroupedBesselProduct:
    @pytest.mark.parametrize("box_side, cutoff", [
        (4 * np.pi, 1.5), (4 * np.pi * 4 ** (1 / 3), 1.5), (4 * np.pi * 16 ** (1 / 3), 1.5),
        (2 * np.pi, 2.5),
    ], ids=["sweep244", "sweep920", "sweep3676", "lattice160"])
    @pytest.mark.parametrize("direction", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                           (0.3, -0.5, 0.8), (-0.71, 0.12, 0.33)],
                             ids=["z", "x", "random1", "random2"])
    def test_matches_per_mode_product(self, box_side, cutoff, direction):
        grid = build_grid(box_side, cutoff, CONSTS)
        sd = np.sqrt(FiniteLaw.of("modified", grid, direction).variance)
        s = np.linspace(-10.0 / sd, 10.0 / sd, 401)
        dev = boyer_generating(s, direction, grid) - per_mode_product(s, direction, grid)
        assert np.max(np.abs(dev)) < 1e-13

    @pytest.mark.parametrize("block", [None, 3], ids=["one-block", "three-amplitude-blocks"])
    def test_multiplicity_groups(self, monkeypatch, block):
        # 8 distinct amplitudes shared by each of 1, 2, 3, 5 and 8 modes, rows shuffled
        s = np.linspace(-12.0, 12.0, 401)
        if block is not None:   # 201 distinct |s|: blocks of 3 amplitudes split each group
            monkeypatch.setattr("zpfsim.dists._BLOCK_ELEMENTS", block * 201)
        amps = np.linspace(0.05, 0.6, 40)
        rows = np.random.default_rng(5).permutation(np.repeat(amps, np.tile([1, 2, 3, 5, 8], 8)))
        ref = np.prod(j0(np.outer(s, rows)), axis=1)
        assert np.max(np.abs(FiniteLaw("boyer", rows)(s) - ref)) <= 1e-13

    def test_even_bitwise(self, medium_grid):
        s = np.linspace(0.0, 40.0, 257)
        d = (0.3, -0.5, 0.8)
        assert np.array_equal(boyer_generating(s, d, medium_grid),
                              boyer_generating(-s, d, medium_grid))

    def test_scalar_unsorted_and_repeated_s(self, medium_grid):
        d = (0.3, -0.5, 0.8)
        s = np.linspace(-30.0, 30.0, 121)
        ref = boyer_generating(s, d, medium_grid)
        perm = np.random.default_rng(3).permutation(s.size)
        assert np.array_equal(boyer_generating(s[perm], d, medium_grid), ref[perm])
        rep = np.array([5, 5, 0, 120, 5, 60, 60])
        assert np.array_equal(boyer_generating(s[rep], d, medium_grid), ref[rep])
        grid2d = boyer_generating(s[rep].reshape(1, -1), d, medium_grid)
        assert grid2d.shape == (1, rep.size) and np.array_equal(grid2d[0], ref[rep])
        for i in (0, 37, 60):
            value = boyer_generating(s[i], d, medium_grid)
            assert isinstance(value, float)
            assert value == pytest.approx(ref[i], rel=1e-15, abs=1e-15)

    def test_orthogonal_modes_contribute_one(self):
        # along z, both polarizations of k = z and eps1 = y of k = x are
        # orthogonal to shat; only eps2 = z of k = x enters
        both = grid_from_kvectors([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], volume=0.5,
                                  constants=CONSTS)
        only_x = grid_from_kvectors([[1.0, 0.0, 0.0]], volume=0.5, constants=CONSTS,
                                    polarizations=(2,))
        s = np.linspace(-5.0, 5.0, 41)
        assert np.array_equal(boyer_generating(s, (0, 0, 1), both),
                              boyer_generating(s, (0, 0, 1), only_x))
        flat = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=0.5, constants=CONSTS)
        assert np.all(boyer_generating(s, (0, 0, 1), flat) == 1.0)

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0),
                                           (np.inf, 0.0, 0.0), (1.0, 0.0)],
                             ids=["zero", "nan", "inf", "short"])
    def test_bad_direction(self, small_grid, direction):
        with pytest.raises(ValueError, match="direction"):
            boyer_generating(1.0, direction, small_grid)
        with pytest.raises(ValueError, match="direction"):
            FiniteLaw.of("modified", small_grid, direction).variance


@pytest.fixture
def split_ranges(monkeypatch):
    """(lo, hi, thread) of each range kernels.split_rows runs; every product
    splits, one range per thread of kernels.WORKERS."""
    monkeypatch.setattr(kernels, "MIN_FACTORS", 1)
    split_rows, ranges = kernels.split_rows, []

    def traced(fn, n, parts):
        def run(lo, hi):
            ranges.append((lo, hi, threading.get_ident()))
            fn(lo, hi)
        split_rows(run, n, parts)

    monkeypatch.setattr(kernels, "split_rows", traced)
    return ranges


class TestSplitBesselProduct:
    # 8 distinct amplitudes shared by each of 1, 2, 3, 5 and 8 modes, rows shuffled
    ROWS = np.random.default_rng(5).permutation(
        np.repeat(np.linspace(0.05, 0.6, 40), np.tile([1, 2, 3, 5, 8], 8)))

    @pytest.mark.parametrize("s, n_rows", [
        (3.7, 1),
        (np.array([]), 0),
        (np.array([-2.0, 2.0, 5.0]), 2),   # fewer distinct |s| than threads
        ((np.arange(401) - 200) * 0.06, 201),
    ], ids=["scalar", "empty", "two-rows", "groups"])
    def test_bits_do_not_depend_on_threads(self, monkeypatch, split_ranges, s, n_rows):
        # blocks of 3 amplitudes: each group of 8 spans three column blocks
        monkeypatch.setattr("zpfsim.dists._BLOCK_ELEMENTS", 3 * max(1, n_rows))
        law, out = FiniteLaw("boyer", self.ROWS), {}
        threads = threading.active_count()
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "WORKERS", workers)
            split_ranges.clear()
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
            try:
                out[workers] = law(s)
            finally:
                sys.setswitchinterval(switch)
            assert threading.active_count() == threads
            parts = max(1, min(workers, n_rows))
            assert sorted(lo for lo, _, _ in split_ranges) == \
                [n_rows * p // parts for p in range(parts)]
            # the calling thread runs the first range and pool threads the rest
            assert [ident == threading.get_ident() for _, _, ident in sorted(split_ranges)] == \
                [True] + [False] * (parts - 1)
            assert type(out[workers]) is type(out[1])
            assert np.array_equal(out[workers], out[1])
        ref = np.prod(j0(np.multiply.outer(s, self.ROWS)), axis=-1)
        assert np.max(np.abs(out[1] - ref), initial=0.0) <= 1e-13

    def test_worker_error_reraised_after_all_ranges(self, monkeypatch, split_ranges):
        # the largest |s| is the last row, in the worker's range, and A |s| overflows
        monkeypatch.setattr(kernels, "WORKERS", 2)
        s = np.array([1.0, 2.0, 3.0, 1e308])
        threads = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            FiniteLaw("boyer", np.array([2.0]))(s)
        assert [(lo, hi) for lo, hi, _ in sorted(split_ranges)] == [(0, 2), (2, 4)]
        assert sorted(split_ranges)[1][2] != threading.get_ident()
        assert threading.active_count() == threads

    def test_memory_is_one_buffer_plus_rows(self, monkeypatch):
        # gf-inversion's densest sweep grid: 3676 modes, 4097 distinct |s|, two threads
        monkeypatch.setattr(kernels, "WORKERS", 2)
        grid = build_grid(4 * np.pi * 16 ** (1 / 3), 1.5)
        law = FiniteLaw.of("boyer", grid, (0.3, -0.5, 0.8))
        s = (np.arange(8193) - 4096) * 0.01
        law(s[:2])   # scipy.special loads outside the trace
        rows = 4097
        block = min(_BLOCK_ELEMENTS // rows, np.unique(law.amplitudes).size)
        tracemalloc.start()
        try:
            law(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * block * 8 + 16 * s.nbytes


def law_rows(small_grid):
    """(grid, re, im, direction) of field components on the 36-mode lattice
    and a 3-mode custom grid, and of the 8-shell oscillator's three axes."""
    weak = PhysicalConstants(electron_charge=0.01)
    params = OscillatorParams.from_constants(1.0, weak)
    shells = resonance_shell_grid(params, weak, n_shells=8)
    h = transfer(shells.omega, params)
    three = grid_from_kvectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.3, 0.2, 1.0]],
                               volume=1.0, polarizations=(1,))
    return [(small_grid, 1.0, 0.0, (1.0, 0.0, 0.0)), (small_grid, 1.0, 0.0, (0.3, 0.5, 0.8)),
            (three, 1.0, 0.0, (0.3, 0.5, 0.8)),
            *((shells, h.real, h.imag, axis) for axis in np.eye(3))]


class TestFiniteLaw:
    @pytest.mark.parametrize("kind", ["boyer", "modified"])
    def test_curvature_is_the_variance(self, small_grid, kind):
        """-law''(0) = variance: a dropped 1/2 in the Boyer variance fails."""
        for grid, re, im, d in law_rows(small_grid):
            law = FiniteLaw.of(kind, grid, d, re, im)
            h = 1e-3 / np.sqrt(law.variance)
            assert 2.0 * (1.0 - law(h)) / h**2 == pytest.approx(law.variance, rel=1e-5)

    def test_boyer_and_modified_variances_agree(self, small_grid):
        """Same rows, same variance: a dropped sqrt(2) in the Boyer rows fails."""
        for grid, re, im, d in law_rows(small_grid):
            assert FiniteLaw.of("boyer", grid, d, re, im).variance == pytest.approx(
                FiniteLaw.of("modified", grid, d, re, im).variance, rel=1e-14)

    def test_kind_given_by_name(self):
        """A kind named by a string is its FieldKind, so every method picks
        the right law; a name that is no kind is refused."""
        one = np.array([1.0])
        assert FiniteLaw("modified", one).cdf(0.5) == GaussianMode(1.0).cdf(0.5)
        assert FiniteLaw("modified", one)(1.0) == math.exp(-0.5)
        assert FiniteLaw("boyer", one).variance == 0.5
        with pytest.raises(ValueError, match="'gauss' is not a valid FieldKind"):
            FiniteLaw("gauss", one)


def single_mode_arcsine(n_x):
    """One-mode Bessel product, its arcsine amplitude, and n_x points
    inside the support with 5% of it cut at each end."""
    grid = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=0.5, constants=CONSTS,
                              polarizations=(1,))
    amp = np.sqrt(2.0) * float(grid.sigma[0])
    margin = 0.05 * amp
    x = np.linspace(-amp + margin, amp - margin, n_x)
    return amp, BesselProductGF(grid, (1.0, 0.0, 0.0)), x


def direct_sum_inversion(gf, x, s_max, n_s=8193, decay_tol=None):
    """Reference inversion: the trapezoid sum over the same antisymmetric s
    nodes, one cos/sin row per x, divided by 2 pi and by its trapezoid mass.
    It takes invert_characteristic's keywords; decay_tol goes unchecked."""
    ds = 2.0 * s_max / (n_s - 1)
    s = (np.arange(n_s) - (n_s - 1) / 2) * ds
    wg = np.asarray(gf(s), dtype=complex) * ds
    wg[[0, -1]] *= 0.5
    pdf = np.array([np.cos(xm * s) @ wg.real - np.sin(xm * s) @ wg.imag for xm in x])
    pdf /= 2.0 * np.pi
    return pdf / np.trapezoid(pdf, x)


class TestInversion:
    def test_gaussian_roundtrip(self):
        x = np.linspace(-6, 6, 1201)
        pdf = invert_characteristic(GaussianGF(1.0), x, s_max=8.0)
        assert np.max(np.abs(pdf - GaussianMode(1.0).pdf(x))) < 1e-6

    def test_symmetric_output(self):
        x = np.linspace(-5, 5, 501)
        pdf = invert_characteristic(GaussianGF(0.7), x, s_max=12.0)
        assert np.allclose(pdf, pdf[::-1], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n_s", [8193, 8192, 3])
    def test_s_grid_antisymmetric(self, n_s):
        seen = []

        def gf(s):
            seen.append(s.copy())
            return GaussianMode(1.0)(s)

        s_max = 10.0 / 1.17  # np.linspace(-s_max, s_max, n_s) is not antisymmetric here
        invert_characteristic(gf, np.linspace(-6, 6, 101), s_max=s_max, n_s=n_s,
                              decay_tol=1.0)
        s = seen[0]
        assert s.size == n_s
        assert np.array_equal(s, -s[::-1])
        assert s[-1] == pytest.approx(s_max, rel=1e-15)

    def test_flat_gf_insufficient_range(self):
        with pytest.raises(InsufficientRangeError, match="insufficient s-range"):
            invert_characteristic(lambda s: np.ones_like(s),
                                  np.linspace(-1, 1, 11), s_max=5.0)

    def test_negative_gf_has_no_mass(self):
        # -exp(-s^2/2) decays, but inverts to minus the normal density
        with pytest.raises(InsufficientRangeError, match="non-positive mass"):
            invert_characteristic(lambda s: -np.exp(-(s**2) / 2.0),
                                  np.linspace(-6, 6, 101), s_max=8.0)

    @pytest.mark.parametrize("args, name", [
        ({"x_grid": np.linspace(1.0, -1.0, 11)}, "x_grid"),
        ({"x_grid": [0.0]}, "x_grid"),
        ({"x_grid": [-1.0, np.nan, 1.0]}, "x_grid"),
        ({"x_grid": np.zeros((3, 4))}, "x_grid"),
        ({"s_max": -8.0}, "s_max"),
        ({"s_max": np.inf}, "s_max"),
        ({"s_max": 0.0}, "s_max"),
        # a NaN tolerance would switch the decay check off
        ({"s_max": 1.0, "decay_tol": np.nan}, "decay_tol"),
        ({"decay_tol": np.inf}, "decay_tol"),
        ({"decay_tol": -1e-10}, "decay_tol"),
        ({"n_s": 8193.5}, "n_s"),
        ({"n_s": 1}, "n_s"),
        ({"n_s": True}, "n_s"),
    ], ids=["descending", "one_point", "nan", "two_d", "negative_s_max", "infinite_s_max",
            "zero_s_max", "nan_decay_tol", "infinite_decay_tol", "negative_decay_tol",
            "fractional_n_s", "one_n_s", "bool_n_s"])
    def test_bad_argument_is_named(self, args, name):
        args = {"x_grid": np.linspace(-1.0, 1.0, 11), "s_max": 5.0, **args}
        # InsufficientRangeError is a ValueError too, so check the class
        with pytest.raises(ValueError, match=name) as info:
            invert_characteristic(GaussianGF(1.0), **args)
        assert not isinstance(info.value, InsufficientRangeError)

    def test_single_mode_bessel_recovers_arcsine(self):
        # Bessel-product gf of one mode inverts to the arcsine density; the
        # J0 envelope decays only as s^-1/2, so a relaxed decay tolerance and
        # a wide range are needed, and the endpoints are excluded.
        amp, gf, x = single_mode_arcsine(801)
        pdf = invert_characteristic(gf, x, s_max=3000.0, n_s=2**17 + 1, decay_tol=0.05)
        cdf_num = integrate.cumulative_trapezoid(pdf, x, initial=0.0)
        # renormalization spreads the excluded endpoint mass over the interior;
        # rescale by the analytic interior mass before comparing
        law = Arcsine(amp)
        interior = law.cdf(x[-1]) - law.cdf(x[0])
        cdf_num = cdf_num * interior + law.cdf(x[0])
        err = np.max(np.abs(cdf_num - law.cdf(x)))
        assert err < 1e-3

    def test_memory_bounded(self):
        # a dense (x, s) phase matrix over 801 x and 2^17 + 1 s takes 1.6 GB
        _, gf, x = single_mode_arcsine(801)
        tracemalloc.start()
        try:
            invert_characteristic(gf, x, s_max=3000.0, n_s=2**17 + 1, decay_tol=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("case", ["arcsine", "many_modes"])
    def test_chirp_z_matches_direct_sum(self, case):
        if case == "arcsine":
            _, gf, x = single_mode_arcsine(61)
            kw = dict(s_max=3000.0, n_s=2**17 + 1, decay_tol=0.05)
        else:
            grid = build_grid(4 * np.pi, 1.5, CONSTS)  # 244 modes
            sd = np.sqrt(FiniteLaw.of("modified", grid, (0.3, 0.5, 0.8)).variance)
            gf = BesselProductGF(grid, (0.3, 0.5, 0.8))
            x = np.linspace(-8.0, 8.0, 201) * sd
            kw = dict(s_max=10.0 / sd)
        fast = invert_characteristic(gf, x, **kw)
        direct = direct_sum_inversion(gf, x, **kw)
        assert np.max(np.abs(fast - direct)) < 1e-8 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n, m", [(2, 1), (37, 11), (64, 65), (100, 3), (5, 120)])
    def test_chirp_z_small_sizes(self, n, m):
        # n + m - 1 = 47 is prime for (37, 11), so its FFT pads to 48
        gen = np.random.default_rng(n * m)
        a = gen.normal(size=n) + 1j * gen.normal(size=n)
        s = np.linspace(-3.0, 5.0, n)
        x0, dx = -1.3, 0.17
        direct = np.exp(1j * np.outer(x0 + np.arange(m) * dx, s)) @ a
        fast = _chirp_z(a, s, x0, dx, m)
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_fft_length_is_next_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        lengths = [k for k in range(1, 6001) if smooth(k)]
        assert [_fft_length(n) for n in range(1, 5001)] == [
            lengths[bisect.bisect_left(lengths, n)] for n in range(1, 5001)]
        assert (_fft_length(2**17 + 1 + 401 - 1), _fft_length(8193 + 401 - 1)) == (135000, 8640)

    def test_non_uniform_gaussian(self):
        # the chirp-z transform needs evenly spaced x: two spacings that meet
        # at 0, and a linspace with one node moved by 1e-9 dx (5 times the
        # 1e-12-of-the-span threshold), are both rejected
        two = np.concatenate([np.linspace(-6, 0, 401), np.linspace(0, 6, 1001)[1:]])
        moved = np.linspace(-6, 6, 201)
        moved[1] += 1e-9 * (moved[1] - moved[0])
        for x in (two, moved):
            with pytest.raises(ValueError, match="x_grid must be .* evenly spaced") as info:
                invert_characteristic(GaussianGF(1.0), x, s_max=8.0)
            assert not isinstance(info.value, InsufficientRangeError)
        # a move of 1e-13 of the span lies inside the threshold
        jitter = np.linspace(-6, 6, 201)
        jitter[1] += 1e-13 * 12.0
        pdf = invert_characteristic(GaussianGF(1.0), jitter, s_max=8.0)
        assert np.max(np.abs(pdf - GaussianMode(1.0).pdf(jitter))) < 1e-6


class TestEnergyDensity:
    def test_lattice_binned_density(self):
        # bins must hold enough lattice shells to average out count jitter
        grid = build_grid(12 * np.pi, 4.0, CONSTS)
        edges = np.linspace(2.0, 4.0, 5)
        got = binned_energy_density(grid, edges)
        want = energy_density_bin_average(edges, CONSTS)
        assert np.all(np.abs(got / want - 1.0) < 0.02)


class TestDistributionCatalogue:
    @pytest.mark.parametrize("dist,lo,hi", [
        (GaussianMode(0.8), -8.0, 8.0),
        (lambda x: quantum_oscillator_pdf(3, x, 2.0), -4.0, 4.0),
    ])
    def test_unit_mass(self, dist, lo, hi):
        # a law object or a bare density
        mass, _ = integrate.quad(getattr(dist, "pdf", dist), lo, hi, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_arcsine_unit_mass_with_transform(self):
        assert arcsine_quadrature_mass(np.sqrt(2.0), np.sqrt(2.0)) == pytest.approx(
            1.0, abs=1e-6)

    @pytest.mark.parametrize("dist", [
        GaussianMode(1.3),
        Arcsine(2.0),
    ])
    def test_cdf_monotone_with_correct_limits(self, dist):
        x = np.linspace(-30, 30, 6001)
        cdf = dist.cdf(x)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_arcsine_gaussian_moment_match_and_divergence(self):
        # first two moments coincide, fourth moments differ by a factor 2
        sigma = 0.7
        arc = Arcsine(np.sqrt(2.0) * sigma)

        def arc_moment(p):
            # endpoint transform; shave the endpoints where pdf = inf meets
            # cos = 0 (analytically the weight there is 1/pi), by enough that
            # A*sin(t) stays representably below A
            eps = 1e-7
            t_pts = np.linspace(-np.pi / 2 + eps, np.pi / 2 - eps, 20001)
            x = arc.amplitudes[0] * np.sin(t_pts)
            w = arc.pdf(x) * arc.amplitudes[0] * np.cos(t_pts)
            return np.trapezoid(x**p * w, t_pts)

        assert arc_moment(1) == pytest.approx(0.0, abs=1e-12)
        assert arc_moment(2) == pytest.approx(sigma**2, rel=1e-6)
        assert arc_moment(4) == pytest.approx(1.5 * sigma**4, rel=1e-6)
        gauss_fourth = 3.0 * sigma**4
        assert gauss_fourth / arc_moment(4) == pytest.approx(2.0, rel=1e-5)

    def test_gaussian_cdf_helper(self):
        assert GaussianMode(2.0).cdf(0.0) == pytest.approx(0.5)
        assert GaussianMode(2.0).cdf(2.0) == ndtr(1.0)
        with pytest.raises(ValueError, match="sigma must be strictly positive"):
            GaussianMode(0.0).cdf(0.0)


class TestGaussianCdf:
    """GaussianMode.cdf is zpfsim's own normal cdf (Cody's rational forms,
    as in Cephes' ndtr, with a dispatch-free exp(-z^2)); scipy's ndtr is the
    oracle."""

    @staticmethod
    def grid():
        return np.linspace(-40.0, 10.0, 2 * 10**6 + 1)

    def test_matches_scipy_ndtr(self):
        x = np.concatenate([self.grid(), np.random.default_rng(32).standard_normal(10**5)])
        ours, ref = GaussianMode(1.0).cdf(x), ndtr(x)
        diff = np.abs(ours - ref)
        assert diff.max() <= 2.3e-16
        for lowest, bound in ((-8.0, 5e-15), (-37.0, 1e-13)):
            inside = x >= lowest
            assert np.max(diff[inside] / ref[inside]) <= bound

    def test_symmetry_and_limits(self):
        cdf = GaussianMode(1.0).cdf
        assert cdf(0.0) == 0.5
        x = np.linspace(-40.0, 40.0, 400001)
        assert np.max(np.abs(cdf(x) + cdf(-x) - 1.0)) <= np.spacing(1.0)
        grid = self.grid()
        values = cdf(grid)
        assert np.all(np.diff(values) >= 0.0)
        assert np.all(values[grid < -38.5] == 0.0)
        assert values[grid >= -38.4].min() > 0.0
        assert np.all(cdf(np.linspace(8.3, 40.0, 1001)) == 1.0)
        assert cdf(8.2) < 1.0
        assert np.array_equal(cdf(np.array([-np.inf, np.inf, 1e300, -1e300])),
                              [0.0, 1.0, 1.0, 0.0])
        assert np.isnan(cdf(np.nan))

    def test_scale_shapes_and_blocks(self):
        law = GaussianMode(0.7)
        x = 0.7 * np.linspace(-12.0, 12.0, 3 * 2**13 + 5)   # blocks mixing every branch
        values = law.cdf(x)
        assert np.max(np.abs(values - ndtr(x / 0.7))) <= 2.3e-16
        order = np.random.default_rng(3).permutation(x.size)
        assert np.array_equal(law.cdf(x[order]), values[order])
        assert np.array_equal(law.cdf(x[:-5].reshape(3, -1)), values[:-5].reshape(3, -1))
        assert [law.cdf(v) for v in x[::997]] == values[::997].tolist()
        assert type(law.cdf(0.3)) is float
        assert law.cdf(np.empty((0, 2))).shape == (0, 2)

    def test_modified_law_is_ndtr_of_its_sigma(self, medium_grid):
        # a modified law of many rows is the normal law of its variance, and
        # its cdf is _ndtr at sqrt(variance), bit for bit
        law = FiniteLaw.of("modified", medium_grid, (0.3, 0.5, 0.8))
        x = np.linspace(-12.0, 12.0, 3 * 2**13 + 5) * math.sqrt(law.variance)
        assert np.array_equal(law.cdf(x), _ndtr(x, math.sqrt(law.variance)))
        assert np.max(np.abs(law.cdf(x) - ndtr(x / math.sqrt(law.variance)))) <= 2.3e-16

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan])
    def test_refuses_non_positive_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be strictly positive"):
            GaussianMode(sigma).cdf(np.zeros(3))


def law_digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def boyer_law_digests():
    """Digests of the Boyer law FiniteLaw.of("boyer", grid, d)(s) on the
    160-mode lattice along x and (0.3, 0.5, 0.8), and on the 244-, 920- and
    3676-mode grids of the generating density sweep along (0.3, 0.5, 0.8),
    each on invert_characteristic's 8193-point s grid out to 10 standard
    deviations."""
    d = (0.3, 0.5, 0.8)
    cases = [(2 * np.pi, 2.5, (1.0, 0.0, 0.0)), (2 * np.pi, 2.5, d)] + [
        (4 * np.pi * f ** (1 / 3), 1.5, d) for f in (1.0, 4.0, 16.0)]
    digests = []
    for box_side, cutoff, direction in cases:
        law = FiniteLaw.of("boyer", build_grid(box_side, cutoff, CONSTS), direction)
        s = (np.arange(8193) - 4096) * (10.0 / np.sqrt(law.variance) / 4096)
        digests.append(law_digest(law(s)))
    return digests


def gaussian_cdf_digest():
    """Digest of GaussianMode(0.7).cdf from -40 to 10 standard deviations:
    the erf form, both erfc forms and the underflowing tail."""
    return law_digest(GaussianMode(0.7).cdf(0.7 * np.linspace(-40.0, 10.0, 300001)))


def test_simd_independent_law_bits_pinned(medium_grid):
    """Law values built from +, -, *, /, sqrt, rint, ldexp, scipy's j0 and
    sequential products alone: turning off AVX-512, and AVX2 as well,
    through NPY_DISABLE_CPU_FEATURES left these bits unchanged (the Boyer
    law's and the Gaussian cdf's also in
    test_boyer_law_bits_without_simd_extensions). np.exp and np.arcsin
    moved there, so no Gaussian generating function, no arcsine cdf and no
    inverted density is pinned."""
    weak = PhysicalConstants(electron_charge=0.01)
    params = OscillatorParams.from_constants(1.0, weak)
    shells = resonance_shell_grid(params, weak, n_shells=8)
    assert [FiniteLaw.of("modified", medium_grid, d).variance.hex()
            for d in ((1.0, 0.0, 0.0), (0.3, 0.5, 0.8))] == ["0x1.bbdd59ebfb8c4p-3"] * 2
    h = transfer(shells.omega, params)
    assert [FiniteLaw.of("modified", shells, a, h.real, h.imag).variance.hex()
            for a in np.eye(3)] == [
        "0x1.ff7ced914b17dp-2", "0x1.ff7ced914b17ep-2", "0x1.ff7ced914b17dp-2"]
    assert law_digest(GaussianMode(0.7).cdf(np.linspace(-4.0, 4.0, 1001))) == "e9b2af525584ee1d"
    assert gaussian_cdf_digest() == "bdb4f56aedd10145"
    assert law_digest(Arcsine(1.0).pdf(np.linspace(-1.2, 1.2, 1001))) == "9c86b45bed5cc739"
    assert boyer_law_digests() == ["abdf2cde6244f106", "0711c1e43bb328e6", "6d31f9dc337a465f",
                                   "e239a2da437b22fc", "7f48b72efd13eff2"]


def test_boyer_law_bits_without_simd_extensions(child_env):
    """A child process with every CPU feature numpy dispatches to above its
    baseline turned off (NPY_DISABLE_CPU_FEATURES) computes the same Boyer
    law and Gaussian cdf bytes as this process."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not found:
        pytest.skip("numpy found no CPU feature above its baseline here, so none can be "
                    "turned off")
    code = ("import sys\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "import test_dists\n"
            f"print(*[__cpu_features__[name] for name in {found!r}])\n"
            "print(*test_dists.boyer_law_digests())\n"
            "print(test_dists.gaussian_cdf_digest())\n")
    env = {**child_env, "NPY_DISABLE_CPU_FEATURES": " ".join(found)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    disabled, digests, cdf_digest = done.stdout.splitlines()
    assert disabled.split() == ["False"] * len(found)
    assert digests.split() == boyer_law_digests()
    assert cdf_digest == gaussian_cdf_digest()
