import numpy as np
import pytest
from scipy import integrate

from zpfsim import (
    EmptyGridError,
    OscillatorParams,
    build_grid,
    grid_from_kvectors,
    mode_sigma,
    polarization_basis,
    resonance_shell_grid,
)
from zpfsim.constants import PhysicalConstants
from zpfsim.lattice import ModeGrid

CONSTS = PhysicalConstants()
WEAK = PhysicalConstants(electron_charge=0.01)


def angular_polarization_integral(s) -> float:
    """Closed form of the orientation integral of sum_lam (s.eps)^2: 8*pi*|s|^2/3."""
    s = np.asarray(s, dtype=float)
    return float(8.0 * np.pi * np.dot(s, s) / 3.0)


def angular_polarization_mc(s, n_directions: int, seed: int):
    """Monte Carlo companion of angular_polarization_integral.

    Averages sum_lam (s . eps_{k,lam})^2 over uniformly random directions
    khat and multiplies by the full solid angle 4*pi. Returns (estimate,
    standard_error).
    """
    s = np.asarray(s, dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    eps1, eps2 = polarization_basis(rng.standard_normal((n_directions, 3)))
    vals = (eps1 @ s) ** 2 + (eps2 @ s) ** 2
    mean = 4.0 * np.pi * np.mean(vals)
    se = 4.0 * np.pi * np.std(vals, ddof=1) / np.sqrt(n_directions)
    return float(mean), float(se)


def continuum_sum_check(grid: ModeGrid, f):
    """Discrete mode sum of f(omega) next to its continuum-limit integral.

    Returns (sum over modes of f(omega_k),
             V/(pi^2 c^3) * integral_0^cutoff omega^2 f(omega) domega).
    The pair quantifies how well the lattice approximates free space.
    """
    discrete = float(np.sum(f(grid.omega)))
    pref = grid.volume / (np.pi**2 * grid.constants.c**3)
    integral, _ = integrate.quad(lambda w: w * w * f(w), 0.0, grid.omega_cutoff, limit=200)
    return discrete, float(pref * integral)


def brute_force_count(box_side, cutoff, c=1.0):
    # independent enumeration of n in Z^3 with 0 < c|2 pi n / L| <= cutoff
    dk = 2.0 * np.pi / box_side
    nmax = int(cutoff / (c * dk)) + 2
    count = 0
    for i in range(-nmax, nmax + 1):
        for j in range(-nmax, nmax + 1):
            for k in range(-nmax, nmax + 1):
                if (i, j, k) == (0, 0, 0):
                    continue
                if c * dk * np.sqrt(i * i + j * j + k * k) <= cutoff * (1 + 1e-12):
                    count += 1
    return count


class TestBuildGrid:
    def test_example_counts(self, small_grid):
        # |n| = 1 gives 6 wavevectors, |n| = sqrt(2) ~ 1.414 < 1.5 gives 12 more
        assert len(small_grid) == 36
        assert brute_force_count(2 * np.pi, 1.5) == 18

    @pytest.mark.parametrize("box,cut", [(2 * np.pi, 2.5), (4 * np.pi, 1.2), (9.0, 3.3)])
    def test_counts_match_brute_force(self, box, cut):
        grid = build_grid(box, cut, CONSTS)
        assert len(grid) == 2 * brute_force_count(box, cut)

    def test_empty_grid_error(self):
        with pytest.raises(EmptyGridError, match="empty grid"):
            build_grid(2 * np.pi, 0.5, CONSTS)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_grid(-1.0, 1.0, CONSTS)
        with pytest.raises(ValueError):
            build_grid(1.0, 0.0, CONSTS)

    def test_mode_invariants(self, medium_grid):
        g = medium_grid
        norms = np.linalg.norm(g.eps, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)
        dots = np.einsum("ij,ij->i", g.eps, g.k)
        assert np.all(np.abs(dots) < 1e-12 * np.linalg.norm(g.k, axis=1))
        # polarization pairs are mutually orthogonal
        pair_dots = np.einsum("ij,ij->i", g.eps[0::2], g.eps[1::2])
        assert np.all(np.abs(pair_dots) < 1e-12)
        # omega = c|k| exactly by construction
        assert np.array_equal(g.omega, CONSTS.c * np.linalg.norm(g.k, axis=1))
        # sigma^2 * 2 eps0 V / hbar = omega to round-off
        lhs = g.sigma**2 * 2.0 * CONSTS.eps0 * g.volume / CONSTS.hbar
        assert np.allclose(lhs, g.omega, rtol=1e-14)
        assert np.all(g.omega <= g.omega_cutoff * (1 + 1e-12))

    def test_polarization_pairs_per_wavevector(self, small_grid):
        g = small_grid
        assert np.array_equal(g.lam[0::2], np.ones(len(g) // 2, dtype=np.int64))
        assert np.array_equal(g.lam[1::2], 2 * np.ones(len(g) // 2, dtype=np.int64))
        assert np.array_equal(g.k[0::2], g.k[1::2])

    def test_deterministic_and_bit_identical(self):
        a = build_grid(2 * np.pi, 2.5, CONSTS)
        b = build_grid(2 * np.pi, 2.5, CONSTS)
        for name in ("k", "lam", "eps", "omega", "sigma"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.fingerprint == b.fingerprint
        # lexicographic order in n = k L / 2 pi, which rounds back exactly
        n = np.rint(a.k[0::2] / (2 * np.pi / a.box_side))
        assert np.array_equal(n * (2 * np.pi / a.box_side), a.k[0::2])
        keys = [tuple(row) for row in n]
        assert keys == sorted(keys)

    def test_arrays_immutable(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.sigma[0] = 99.0

    def test_fingerprints_pinned(self, medium_grid):
        """Each builder's grid bits: a change of the polarization convention,
        the row order or the mode scales moves these fingerprints."""
        p = OscillatorParams.from_constants(1.0, WEAK)
        custom = grid_from_kvectors([[0.0, 0.0, 1.5], [0.3, -1.2, 0.8], [0.0, 0.0, -2.0]],
                                    volume=2.0, constants=CONSTS, polarizations=[2, 1])
        shells = [resonance_shell_grid(p, WEAK, n_shells=8, directions=d).fingerprint
                  for d in (None, 7,
                            [[1.0, 2.0, 3.0], [0.0, 0.0, -1.0], [-1.0, 0.5, 0.0]])]
        assert medium_grid.fingerprint == "1d54be25cea39ce4"
        assert custom.fingerprint == "427e2e608d89b78f"
        assert shells == ["f4807360b01eae9d", "f3d35d6d7efba51d", "885f8a35c42a2dea"]


class TestModeSigma:
    def test_direct_substitution(self):
        assert mode_sigma(2.0, 1.0, CONSTS) == pytest.approx(1.0)
        assert mode_sigma(1.0, 2.0, CONSTS) == pytest.approx(0.5)

    def test_sqrt_homogeneity(self):
        assert mode_sigma(4.0, 3.0, CONSTS) == pytest.approx(2 * mode_sigma(1.0, 3.0, CONSTS))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mode_sigma(-1.0, 1.0, CONSTS)
        with pytest.raises(ValueError):
            mode_sigma(1.0, 0.0, CONSTS)


class TestPolarizationBasis:
    def test_axis_aligned_convention(self):
        e1, e2 = polarization_basis([0.0, 0.0, 1.0])
        assert np.allclose(e1, [1, 0, 0])
        assert np.allclose(e2, [0, 1, 0])
        e1, e2 = polarization_basis([0.0, 0.0, -2.0])
        assert np.allclose(e1, [1, 0, 0])
        assert np.allclose(e2, [0, -1, 0])

    @pytest.mark.parametrize("seed", range(8))
    def test_orthonormal_right_handed(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.normal(size=3)
        e1, e2 = polarization_basis(k)
        khat = k / np.linalg.norm(k)
        assert abs(np.dot(e1, e2)) < 1e-12
        assert abs(np.dot(e1, k)) < 1e-12 * np.linalg.norm(k)
        assert abs(np.dot(e2, k)) < 1e-12 * np.linalg.norm(k)
        assert abs(np.linalg.norm(e1) - 1) < 1e-12
        assert abs(np.linalg.norm(e2) - 1) < 1e-12
        assert np.allclose(np.cross(e1, e2), khat, atol=1e-12)

    def test_scale_invariance(self):
        # identical up to the rounding of the direction normalization
        k = np.array([0.3, -1.2, 0.8])
        a = polarization_basis(k)
        b = polarization_basis(3.0 * k)
        assert np.allclose(a[0], b[0], rtol=0, atol=1e-15)
        assert np.allclose(a[1], b[1], rtol=0, atol=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            polarization_basis([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            polarization_basis([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_array_rows_equal_single_calls(self):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(2000, 3)) * np.exp(rng.uniform(-5.0, 5.0, size=(2000, 1)))
        k[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [1e-13, 0.0, 1.0], [1.0, 0.0, 0.0]]
        e1, e2 = polarization_basis(k)
        assert e1.shape == e2.shape == (2000, 3)
        for i, row in enumerate(k):
            a1, a2 = polarization_basis(row)
            assert np.array_equal(a1, e1[i]) and np.array_equal(a2, e2[i])


class TestAngularIntegral:
    def test_closed_form(self):
        assert angular_polarization_integral([0, 0, 1]) == pytest.approx(8 * np.pi / 3)
        assert angular_polarization_integral([0, 0, 0]) == 0.0

    def test_monte_carlo_oracle(self):
        s = np.array([1.0, 1.0, 1.0])
        est, se = angular_polarization_mc(s, 200_000, seed=123)
        exact = angular_polarization_integral(s)
        assert exact == pytest.approx(8 * np.pi)
        assert abs(est - exact) < max(3 * se, 0.005 * exact)


class TestContinuumSum:
    def test_constant_integrand_counts_modes(self, medium_grid):
        discrete, integral = continuum_sum_check(medium_grid, lambda w: 1.0 + 0.0 * w)
        assert discrete == len(medium_grid)
        v, wc = medium_grid.volume, medium_grid.omega_cutoff
        assert integral == pytest.approx(v * wc**3 / (3 * np.pi**2), rel=1e-9)

    def test_zero_integrand(self, small_grid):
        assert continuum_sum_check(small_grid, lambda w: 0.0 * w) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_ratio_converges_monotonically(self, p):
        ratios = []
        for box in (4 * np.pi, 8 * np.pi, 16 * np.pi):
            grid = build_grid(box, 2.0, CONSTS)
            discrete, integral = continuum_sum_check(grid, lambda w: w**p)
            ratios.append(discrete / integral)
        errs = [abs(r - 1.0) for r in ratios]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05


class TestCustomGrid:
    def test_single_mode_grid(self):
        grid = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=8.0,
                                  constants=CONSTS, polarizations=(1,))
        assert len(grid) == 1
        assert grid.omega[0] == pytest.approx(1.0)
        assert grid.sigma[0] == pytest.approx(np.sqrt(1.0 / 16.0))
        assert np.allclose(grid.eps[0], [1, 0, 0])

    def test_rejects_zero_wavevector(self):
        with pytest.raises(ValueError):
            grid_from_kvectors([[0.0, 0.0, 0.0]], volume=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_wavevector(self, bad):
        with pytest.raises(ValueError, match="k_vectors"):
            grid_from_kvectors([[0.0, 0.0, 1.0], [bad, 0.0, 1.0]], volume=1.0)

    def test_rejects_bad_polarizations(self):
        with pytest.raises(ValueError):
            grid_from_kvectors([[0, 0, 1]], volume=1.0, polarizations=(3,))
