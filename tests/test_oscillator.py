import itertools

import numpy as np
import pytest

from zpfsim import (
    ConvergenceError,
    FieldKind,
    GaussianMode,
    OscillatorParams,
    bohr_radius_sq,
    coordinate_ensemble,
    grid_from_kvectors,
    ks_test,
    moments,
    predicted_variance,
    resonance_integral,
    resonance_shell_grid,
    transfer,
)
from zpfsim import kernels, oscillator
from zpfsim.constants import PhysicalConstants
from zpfsim.oscillator import fibonacci_directions

from reference import (FieldRealization, coordinate_law, coordinate_sample,
                       draw_realization, empirical_generating, gauss_panels)

CONSTS = PhysicalConstants()


WEAK = PhysicalConstants(electron_charge=0.01)  # narrow-line oscillator regime


def sparse_grid():
    ks = [[0.0, 0.0, 0.9], [0.5, 0.5, 0.70710678], [-0.3, 1.0, 0.2]]
    return grid_from_kvectors(ks, volume=1.0, constants=CONSTS)


BROAD = OscillatorParams(nu0=1.0, gamma=0.05, gamma_prime=1.0, mass=1.0)


class TestParams:
    def test_from_constants_exact(self):
        p = OscillatorParams.from_constants(2.0, CONSTS)
        e, m, c, eps0 = (CONSTS.electron_charge, CONSTS.electron_mass,
                         CONSTS.c, CONSTS.eps0)
        assert p.gamma == e**2 / (6 * np.pi * eps0 * m * c**3)
        assert p.gamma_prime == e / m
        assert p.mass == m
        assert p.nu0 == 2.0

    def test_positivity(self):
        with pytest.raises(ValueError):
            OscillatorParams(nu0=-1.0, gamma=1.0, gamma_prime=1.0, mass=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(nu0=1.0, gamma=0.0, gamma_prime=1.0, mass=1.0)

    def test_resonance_flag(self):
        assert not OscillatorParams.from_constants(1.0, CONSTS).resonance_ok
        assert OscillatorParams.from_constants(1.0, WEAK).resonance_ok


class TestTransfer:
    def test_static_limit(self):
        h = transfer(0.0, BROAD)
        assert h == pytest.approx(BROAD.gamma_prime / BROAD.nu0**2)
        assert h.imag == 0.0

    def test_on_resonance(self):
        p = BROAD
        h = transfer(p.nu0, p)
        assert abs(h) == pytest.approx(p.gamma_prime / (p.gamma * p.nu0**3))
        assert np.angle(h) == pytest.approx(-np.pi / 2)

    def test_magnitude_even_in_frequency(self):
        nu = np.linspace(0.1, 3.0, 50)
        assert np.allclose(np.abs(transfer(nu, BROAD)), np.abs(transfer(-nu, BROAD)),
                           rtol=1e-13)


class TestCoordinateSample:
    def test_zero_amplitudes(self):
        grid = sparse_grid()
        real = FieldRealization(FieldKind.MODIFIED, grid.fingerprint, 0,
                                w=np.zeros(len(grid), dtype=complex))
        assert np.array_equal(coordinate_sample(real, grid, BROAD, 0.0), np.zeros(3))

    def test_single_mode_unit_amplitude(self):
        grid = grid_from_kvectors([[0.0, 0.0, 0.8]], volume=1.0, constants=CONSTS,
                                  polarizations=(1,))
        real = FieldRealization(FieldKind.MODIFIED, grid.fingerprint, 0,
                                w=np.array([1.0 + 0.0j]))
        q = coordinate_sample(real, grid, BROAD, 0.0)
        w = float(grid.omega[0])
        p = BROAD
        expected = (float(grid.sigma[0])
                    * p.gamma_prime * (p.nu0**2 - w**2)
                    / ((p.nu0**2 - w**2) ** 2 + p.gamma**2 * w**6)) * grid.eps[0]
        assert np.allclose(q, expected, rtol=1e-12)

    def test_boyer_substitution(self):
        # random-phase drive enters as w = sqrt(2) exp(i theta)
        grid = sparse_grid()
        boyer = draw_realization("boyer", grid, 3)
        as_w = FieldRealization(FieldKind.MODIFIED, grid.fingerprint, 3,
                                w=np.sqrt(2.0) * np.exp(1j * boyer.theta))
        assert np.allclose(coordinate_sample(boyer, grid, BROAD, 1.3),
                           coordinate_sample(as_w, grid, BROAD, 1.3), rtol=1e-12)

    def test_grid_mismatch(self, small_grid):
        real = draw_realization("modified", sparse_grid(), 1)
        with pytest.raises(ValueError, match="match"):
            coordinate_sample(real, small_grid, BROAD, 0.0)


class TestEnsemble:
    def test_row0_matches_slow_path(self):
        grid = sparse_grid()
        for kind in FieldKind:
            ens = coordinate_ensemble(kind, grid, BROAD, 0.4, 3, 55)
            real = draw_realization(kind, grid, 55)
            assert np.allclose(ens.values[0], coordinate_sample(real, grid, BROAD, 0.4),
                               rtol=1e-10)

    def test_partition_independent(self):
        grid = sparse_grid()
        full = coordinate_ensemble("modified", grid, BROAD, 0.0, 30, 56).values
        p1 = coordinate_ensemble("modified", grid, BROAD, 0.0, 12, 56).values
        p2 = coordinate_ensemble("modified", grid, BROAD, 0.0, 18, 56, start=12).values
        assert np.allclose(full, np.concatenate([p1, p2]), rtol=1e-13)

    def test_non_finite_phase_names_t(self):
        # a finite t whose phase w t overflows fails before sampling, without
        # numpy's overflow or invalid-value warning
        grid = sparse_grid()
        real = draw_realization("modified", grid, 1)
        with pytest.raises(ValueError, match="field 't'"):
            coordinate_ensemble("boyer", grid, BROAD, 1.7e308, 10, 1)
        with pytest.raises(ValueError, match="field 't'"):
            coordinate_sample(real, grid, BROAD, -1.7e308)

    def test_chunk_size_immaterial(self, monkeypatch):
        grid = sparse_grid()
        a = coordinate_ensemble("boyer", grid, BROAD, 0.0, 40, 57).values
        monkeypatch.setattr(kernels, "CHUNK", 7)
        b = coordinate_ensemble("boyer", grid, BROAD, 0.0, 40, 57).values
        assert np.array_equal(a, b)

    def test_shell_ensemble_variance_and_gaussianity(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=48)
        pred = predicted_variance(p, WEAK)
        grid_var = coordinate_law(grid, p, [1, 0, 0]).variance
        assert grid_var == pytest.approx(pred, rel=0.005)
        ens = coordinate_ensemble("modified", grid, p, 0.0, 20_000, 57)
        for axis in range(3):
            v = np.var(ens.values[:, axis], ddof=1)
            assert v == pytest.approx(pred, rel=0.05)
            axis_sigma = np.sqrt(coordinate_law(grid, p, np.eye(3)[axis]).variance)
            assert ks_test(ens.values[:, axis], GaussianMode(axis_sigma).cdf,
                           alpha=0.01).passed

    def test_sampling_time_is_immaterial(self):
        # the coordinate law is stationary; variances at two times agree
        # within Monte Carlo error
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=32)
        n = 20_000
        v0 = np.var(coordinate_ensemble("modified", grid, p, 0.0, n, 58).values[:, 0],
                    ddof=1)
        v7 = np.var(coordinate_ensemble("modified", grid, p, 7.3, n, 58).values[:, 0],
                    ddof=1)
        se = v0 * np.sqrt(2.0 / n)
        assert abs(v7 - v0) < 4 * se

    def test_boyer_needs_many_modes_in_linewidth(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        # dense shells inside the linewidth: random-phase drive looks Gaussian
        dense = resonance_shell_grid(p, WEAK, n_shells=48)
        pred = predicted_variance(p, WEAK)
        ens = coordinate_ensemble("boyer", dense, p, 0.0, 20_000, 59)
        sig = np.sqrt(coordinate_law(dense, p, [1, 0, 0]).variance)
        assert ks_test(ens.values[:, 0], GaussianMode(sig).cdf, alpha=0.01).passed
        assert np.var(ens.values[:, 0], ddof=1) == pytest.approx(pred, rel=0.05)
        # one or two modes in the linewidth: amplitude stays arcsine-like and
        # the Gaussian hypothesis is rejected, while the modified drive passes
        lone = grid_from_kvectors([[0.0, 0.0, p.nu0 / WEAK.c]], volume=1.0,
                                  constants=WEAK)
        sig1 = np.sqrt(coordinate_law(lone, p, [1, 0, 0]).variance)
        boyer1 = coordinate_ensemble("boyer", lone, p, 0.0, 20_000, 60)
        mod1 = coordinate_ensemble("modified", lone, p, 0.0, 20_000, 61)
        assert not ks_test(boyer1.values[:, 0], GaussianMode(sig1).cdf, alpha=0.01).passed
        assert ks_test(mod1.values[:, 0], GaussianMode(sig1).cdf, alpha=0.01).passed

    @pytest.mark.parametrize("seed", [11, 12])
    def test_boyer_kurtosis_matches_bessel_product(self, seed):
        # few modes per axis: the Boyer coordinate keeps the Bessel-product
        # excess kurtosis -1.5 sum A^4 / (sum A^2)^2, far from the Gaussian 0
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=4)
        n = 200_000
        ens = coordinate_ensemble("boyer", grid, p, 0.0, n, seed)
        se = np.sqrt(24.0 / n)
        for axis in range(3):
            amps = (np.sqrt(2.0) * grid.sigma * np.abs(transfer(grid.omega, p))
                    * np.abs(grid.eps[:, axis]))
            gamma2 = -1.5 * np.sum(amps**4) / np.sum(amps**2) ** 2
            kurt = moments(ens.values[:, axis]).excess_kurtosis
            assert abs(kurt - gamma2) / se < 5
            assert kurt / se < -4


class TestGeneratingFunction:
    def test_unit_at_zero(self):
        assert coordinate_law(sparse_grid(), BROAD, [0, 0, 1])(0.0) == 1.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            coordinate_law(sparse_grid(), BROAD, [0, 0, 0])(1.0)

    def test_single_mode_factor(self):
        grid = grid_from_kvectors([[0.0, 0.0, 0.8]], volume=1.0, constants=CONSTS,
                                  polarizations=(1,))
        shat = grid.eps[0]
        s = 1.7
        h = transfer(float(grid.omega[0]), BROAD)
        expected = np.exp(-(s * float(grid.sigma[0])) ** 2 * abs(h) ** 2 / 2.0)
        assert coordinate_law(grid, BROAD, shat)(s) == pytest.approx(
            expected, rel=1e-12)

    def test_exact_on_sparse_grid(self):
        # geometry independence: the product form matches the empirical
        # characteristic function on a deliberately sparse grid
        grid = sparse_grid()
        shat = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        sigma_q = np.sqrt(coordinate_law(grid, BROAD, shat).variance)
        s = np.array([0.5, 1.0, 2.0]) / sigma_q
        ens = coordinate_ensemble("modified", grid, BROAD, 0.0, 50_000, 62)
        g_emp, se = empirical_generating(ens.values @ shat, s)
        g_th = coordinate_law(grid, BROAD, shat)(s)
        assert np.all(np.abs(g_emp.real - g_th) < 3 * se)

    def test_dense_grid_matches_resonance_gaussian(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=64)
        sq = np.sqrt(predicted_variance(p, WEAK))
        s = np.linspace(0.0, 3.0 / sq, 61)
        target = np.exp(-(s * sq) ** 2 / 2.0)
        assert np.max(np.abs(coordinate_law(grid, p, (0, 0, 1))(s) - target)) < 0.02


class TestResonanceIntegral:
    def test_narrow_line_matches_closed_form(self):
        p = OscillatorParams(nu0=1.0, gamma=1e-6, gamma_prime=1.0, mass=1.0)
        quad, closed = resonance_integral(p, omega_max=100.0)
        assert closed == pytest.approx(np.pi / 2e-6)
        assert abs(quad - closed) / closed < 0.01

    def test_closed_form_scaling(self):
        p1 = OscillatorParams(nu0=1.0, gamma=1e-4, gamma_prime=1.0, mass=1.0)
        p2 = OscillatorParams(nu0=1.0, gamma=2e-4, gamma_prime=1.0, mass=1.0)
        _, c1 = resonance_integral(p1, 50.0)
        _, c2 = resonance_integral(p2, 50.0)
        assert c1 == pytest.approx(2 * c2, rel=1e-12)

    @pytest.mark.parametrize("consts", [PhysicalConstants.si(), WEAK])
    def test_identity_for_physical_coefficients(self, consts):
        p = OscillatorParams.from_constants(3.0e2 if consts.c > 10 else 1.0, consts)
        closed = np.pi * p.gamma_prime**2 / (2 * p.gamma * p.nu0)
        identity = 3 * np.pi**2 * consts.c**3 * consts.eps0 / (consts.electron_mass * p.nu0)
        assert closed == pytest.approx(identity, rel=1e-12)

    def test_relative_error_shrinks_with_linewidth(self):
        devs = []
        for gamma in (1e-3, 1e-4, 1e-6):
            p = OscillatorParams(nu0=1.0, gamma=gamma, gamma_prime=1.0, mass=1.0)
            quad, closed = resonance_integral(p, omega_max=200.0)
            devs.append(abs(quad - closed) / closed)
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("p", [
        OscillatorParams.from_constants(1.0, WEAK), BROAD,
        OscillatorParams(nu0=2.0, gamma=1e-9, gamma_prime=3.0, mass=1.0)],
        ids=["weak", "broad", "narrow"])
    def test_panel_sums_keep_the_loops_bits(self, p):
        """One evaluation over all panels adds the panel sums in the order of
        the panel-by-panel loop (tests/reference.py), so it returns its bits,
        from the first panel count to the last doubling's (24 * 2**6)."""
        rule, f = np.polynomial.legendre.leggauss(16), lambda w: w**3 * abs(transfer(w, p))**2
        for cutoff, doubling in itertools.product((5.0, 50.0, 500.0), (0, 3, 6)):
            edges = oscillator._resonance_edges(p, cutoff * p.nu0, 24 * 2**doubling)
            assert oscillator._gauss_panels(edges, f, *rule) == gauss_panels(edges, f, *rule)

    def test_pinned_value(self):
        # the 48-panel sum, the first that agrees with the one before it
        p = OscillatorParams.from_constants(1.0, WEAK)
        assert resonance_integral(p, 50.0)[0] == 29.6091543638641

    @pytest.mark.parametrize("omega_max", [0.0, -1.0, np.nan])
    def test_refuses_non_positive_cutoff(self, omega_max):
        p = OscillatorParams.from_constants(1.0, WEAK)
        with pytest.raises(ValueError, match="omega_max must be strictly positive"):
            resonance_integral(p, omega_max)

    def test_unresolved_peak_raises(self, monkeypatch):
        # one panel per edge run, a window far narrower than the line and a
        # single doubling cannot resolve the peak
        monkeypatch.setattr(oscillator, "BASE_PANELS", 1)
        monkeypatch.setattr(oscillator, "WINDOW_SCALE", 1e-4)
        monkeypatch.setattr(oscillator, "MAX_DOUBLINGS", 1)
        p = OscillatorParams(nu0=1.0, gamma=1e-9, gamma_prime=1.0, mass=1.0)
        with pytest.raises(ConvergenceError, match="converge"):
            resonance_integral(p, omega_max=50.0)

    def test_overflowing_cutoff_raises(self, monkeypatch):
        # the integrand overflows to inf and nan far above the line: the
        # first, non-finite sum ends the quadrature, and no nan passes
        sums = []
        panel_sum = oscillator._gauss_panels
        monkeypatch.setattr(oscillator, "_gauss_panels",
                            lambda *a: sums.append(panel_sum(*a)) or sums[-1])
        p = OscillatorParams.from_constants(1.0, WEAK)
        with pytest.raises(ConvergenceError, match="converge"):
            resonance_integral(p, omega_max=1e150)
        assert len(sums) == 1 and not np.isfinite(sums[0])

    @pytest.mark.parametrize("gamma_nu0, omega_max, rel", [
        (3.0, 1e4, 1e-8),
        # the returned 96-panel sum lies 3.5e-8 from the integral here
        (30.0, 100.0, 1e-7),
    ])
    def test_broad_line_matches_scipy(self, gamma_nu0, omega_max, rel):
        # lines this broad need more than 48 panels per edge run
        from scipy import integrate
        p = OscillatorParams(nu0=1.0, gamma=gamma_nu0, gamma_prime=1.0, mass=1.0)
        quad, _ = resonance_integral(p, omega_max)
        # breakpoints at the line and a decade above it
        ref, _ = integrate.quad(lambda w: w**3 * abs(transfer(w, p)) ** 2, 0.0, omega_max,
                                points=[1.0, 10.0], limit=500, epsabs=0.0, epsrel=1e-12)
        assert quad == pytest.approx(ref, rel=rel)

    def test_cutoff_below_resonance_still_integrates(self):
        from scipy import integrate
        p = OscillatorParams(nu0=1.0, gamma=1e-3, gamma_prime=1.0, mass=1.0)
        quad, _ = resonance_integral(p, omega_max=0.5)
        ref, _ = integrate.quad(
            lambda w: w**3 * abs(transfer(w, p)) ** 2, 0.0, 0.5, limit=200)
        assert quad == pytest.approx(ref, rel=1e-8)


class TestClosedForms:
    def test_predicted_variance(self):
        p = OscillatorParams(nu0=2.0, gamma=1e-4, gamma_prime=1.0, mass=1.0)
        assert predicted_variance(p, CONSTS) == pytest.approx(0.25)
        p2 = OscillatorParams(nu0=4.0, gamma=1e-4, gamma_prime=1.0, mass=1.0)
        assert predicted_variance(p2, CONSTS) == pytest.approx(0.125)

    def test_variance_consistent_with_resonance_integral(self):
        # inserting the closed-form integral into the unbounded-space
        # generating function reproduces hbar/(2 m nu0) exactly for
        # physically related coefficients
        p = OscillatorParams.from_constants(1.7, WEAK)
        closed = np.pi * p.gamma_prime**2 / (2 * p.gamma * p.nu0)
        via_integral = WEAK.hbar * closed / (6 * np.pi**2 * WEAK.c**3 * WEAK.eps0)
        assert via_integral == pytest.approx(predicted_variance(p, WEAK), rel=1e-12)

    def test_pdf_unit_mass(self):
        from scipy import integrate
        p = OscillatorParams(nu0=0.5, gamma=1e-4, gamma_prime=1.0, mass=1.0)
        assert predicted_variance(p, CONSTS) == pytest.approx(1.0)
        # the isotropic coordinate law has unit per-axis variance here; its
        # 3D mass is the cube of the 1D mass
        mass_1d, _ = integrate.quad(lambda x: GaussianMode(1.0).pdf(x), -10, 10)
        assert mass_1d**3 == pytest.approx(1.0, abs=1e-6)

    def test_bohr_radius(self):
        p = OscillatorParams(nu0=1.0, gamma=1e-4, gamma_prime=1.0, mass=1.0)
        assert bohr_radius_sq(p, CONSTS) == pytest.approx(1.0)
        assert bohr_radius_sq(p, CONSTS) == pytest.approx(2 * predicted_variance(p, CONSTS))


class TestShellGrid:
    def test_variance_matches_prediction(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=96, coverage=0.999)
        for axis in np.eye(3):
            var = coordinate_law(grid, p, axis).variance
            assert var == pytest.approx(predicted_variance(p, WEAK), rel=0.003)

    def test_axis_directions_give_isotropic_variance(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=16)
        vx = coordinate_law(grid, p, [1, 0, 0]).variance
        vy = coordinate_law(grid, p, [0, 1, 0]).variance
        vz = coordinate_law(grid, p, [0, 0, 1]).variance
        assert vx == pytest.approx(vy, rel=1e-12)
        assert vy == pytest.approx(vz, rel=1e-12)

    def test_fibonacci_directions_unit(self):
        d = fibonacci_directions(37)
        assert d.shape == (37, 3)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0)

    def test_modes_cluster_on_resonance(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        grid = resonance_shell_grid(p, WEAK, n_shells=64)
        linewidth = p.gamma * p.nu0**3
        inside = np.sum(np.abs(np.unique(grid.omega) - p.nu0) < linewidth)
        assert inside >= 30

    def test_invalid_parameters(self):
        p = OscillatorParams.from_constants(1.0, WEAK)
        with pytest.raises(ValueError):
            resonance_shell_grid(p, WEAK, n_shells=1)
        with pytest.raises(ValueError):
            resonance_shell_grid(p, WEAK, coverage=1.5)

    @pytest.mark.parametrize("directions", [
        0, -2, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[np.nan, 0.0, 1.0]], [[np.inf, 0.0, 1.0]],
    ], ids=["zero_count", "negative_count", "zero_vector", "nan", "inf"])
    def test_rejects_bad_directions(self, directions):
        p = OscillatorParams.from_constants(1.0, WEAK)
        with pytest.raises(ValueError, match="directions"):
            resonance_shell_grid(p, WEAK, n_shells=4, directions=directions)

    @pytest.mark.parametrize("d", [[1e300, 0.0, 0.0], [0.0, 1e-200, 0.0]],
                             ids=["overflow", "underflow"])
    def test_direction_length_out_of_range_is_named(self, d):
        # as for grid_from_kvectors: a ValueError naming the row, no numpy warning
        p = OscillatorParams.from_constants(1.0, WEAK)
        with pytest.raises(ValueError, match=r"directions\[1\] must be three finite numbers "
                                             "whose squared length"):
            resonance_shell_grid(p, WEAK, n_shells=4, directions=[[0.0, 0.0, 1.0], d])
