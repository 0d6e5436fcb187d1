"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated; runtime budgets are
checked where stated.
"""

import time

import numpy as np
import pytest
from scipy import integrate

import zpfsim as z
from zpfsim.constants import PhysicalConstants

from reference import empirical_generating

CONSTS = PhysicalConstants()
# physically consistent narrow-line regime: gamma = e^2/(6 pi eps0 m c^3)
WEAK = PhysicalConstants(electron_charge=0.01)

ALPHA = 0.01


def coordinate_law(grid, p, direction):
    """Exact law of the coordinate along direction for the modified field."""
    h = z.transfer(grid.omega, p)
    return z.FiniteLaw.of("modified", grid, direction, h.real, h.imag)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def mode_grid():
    return z.build_grid(2 * np.pi, 1.5, CONSTS)


@pytest.fixture(scope="module")
def oscillator_run():
    params = z.OscillatorParams.from_constants(1.0, WEAK)
    grid = z.resonance_shell_grid(params, WEAK, n_shells=96, coverage=0.999)
    t0 = time.perf_counter()
    ensemble = z.coordinate_ensemble("modified", grid, params, 0.0, 100_000, 2024)
    elapsed = time.perf_counter() - t0
    return params, grid, ensemble, elapsed


def test_criterion_1_single_mode_gaussianity(mode_grid):
    t0 = time.perf_counter()
    n = 100_000
    sigma = float(mode_grid.sigma[0])
    batch = z.sample_mode_batch("modified", mode_grid, 0, [0, 0, 0], 0.0, n, 101)
    ks = z.ks_test(batch.values, z.GaussianMode(sigma).cdf, alpha=ALPHA)
    var = float(np.var(batch.values, ddof=1))
    elapsed = time.perf_counter() - t0
    ok = ks.passed and abs(var / sigma**2 - 1.0) < 0.01 and elapsed < 5.0
    report(1, ok,
           f"modified mode KS D={ks.statistic:.4f} (crit {ks.critical:.4f}), "
           f"var/sigma^2={var / sigma**2:.4f}, {elapsed:.2f}s")


def test_criterion_2_boyer_arcsine_law(mode_grid):
    t0 = time.perf_counter()
    n = 100_000
    sigma = float(mode_grid.sigma[0])
    batch = z.sample_mode_batch("boyer", mode_grid, 0, [0, 0, 0], 0.0, n, 102)
    ks_arc = z.ks_test(batch.values, z.Arcsine(np.sqrt(2) * sigma).cdf, alpha=ALPHA)
    ks_gauss = z.ks_test(batch.values, z.GaussianMode(sigma).cdf, alpha=ALPHA)
    elapsed = time.perf_counter() - t0
    ok = (ks_arc.passed and not ks_gauss.passed and ks_gauss.statistic >= 0.05
          and elapsed < 5.0)
    report(2, ok,
           f"boyer arcsine D={ks_arc.statistic:.4f} (pass), "
           f"gaussian D={ks_gauss.statistic:.4f} (>= 0.05, fail), {elapsed:.2f}s")


def test_criterion_3_moment_agreement_and_divergence(mode_grid):
    n = 1_000_000
    sigma = float(mode_grid.sigma[0])
    reports = {}
    for kind, seed in (("modified", 103), ("boyer", 104)):
        batch = z.sample_mode_batch(kind, mode_grid, 0, [0, 0, 0], 0.0, n, seed)
        reports[kind] = z.moments(batch.values)
    ok = True
    for kind, rep in reports.items():
        ok &= abs(rep.mean) < 3 * rep.se_mean
        ok &= abs(rep.variance / sigma**2 - 1.0) < 0.01
    separation = reports["modified"].excess_kurtosis - reports["boyer"].excess_kurtosis
    ok &= separation > 1.0
    report(3, ok,
           f"means within 3 SE, variances within 1%, kurtosis separation "
           f"{separation:.3f} (modified {reports['modified'].excess_kurtosis:+.3f}, "
           f"boyer {reports['boyer'].excess_kurtosis:+.3f})")


def test_criterion_4_central_limit_convergence():
    n = 10_000
    xhat = np.array([1.0, 0.0, 0.0])
    big = z.build_grid(2 * np.pi, 2.5, CONSTS)          # 160 modes
    pair = z.grid_from_kvectors([[0.0, 0.0, 1.0]], volume=(2 * np.pi) ** 3,
                                constants=CONSTS)       # 2 modes
    results = {}
    for label, grid, seed in (("big", big, 105), ("pair", pair, 106)):
        sig = np.sqrt(z.FiniteLaw.of("modified", grid, xhat).variance)
        for kind in ("boyer", "modified"):
            batch = z.sample_field_batch(kind, grid, [0, 0, 0], 0.0, n, seed)
            results[(label, kind)] = z.ks_test(batch.values @ xhat,
                                               z.GaussianMode(sig).cdf, alpha=ALPHA)
    ok = (len(big) >= 100
          and results[("big", "boyer")].passed
          and not results[("pair", "boyer")].passed
          and results[("big", "modified")].passed
          and results[("pair", "modified")].passed)
    report(4, ok,
           f"boyer: {len(big)}-mode D={results[('big', 'boyer')].statistic:.4f} pass, "
           f"2-mode D={results[('pair', 'boyer')].statistic:.4f} fail; "
           f"modified passes on both")


def test_criterion_5_generating_function_convergence():
    t0 = time.perf_counter()
    cutoff = 1.5
    shat = [0.0, 0.0, 1.0]
    sig_e = z.total_field_sigma(cutoff, CONSTS)
    s = np.linspace(0.0, 5.0 / sig_e, 101)
    devs = []
    for factor in (1.0, 4.0, 16.0):   # mode density per fixed cutoff scales with V
        grid = z.build_grid(4 * np.pi * factor ** (1 / 3), cutoff, CONSTS)
        dev = np.abs(z.dists.boyer_generating(s, shat, grid)
                     - z.FiniteLaw.of("modified", grid, shat)(s))
        devs.append(float(np.max(dev)))
    ratios = (devs[0] / devs[1], devs[1] / devs[2])
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= r <= 7.0 for r in ratios) and elapsed < 30.0
    report(5, ok,
           f"max deviation {devs[0]:.2e} -> {devs[1]:.2e} -> {devs[2]:.2e}, "
           f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [3, 7], {elapsed:.1f}s")


def test_criterion_6_energy_density():
    t0 = time.perf_counter()
    grid = z.build_grid(16 * np.pi, 4.0, CONSTS)
    edges = np.linspace(1.5, 4.0, 11)
    from reference import binned_energy_density, energy_density_bin_average
    got = binned_energy_density(grid, edges)
    want = energy_density_bin_average(edges, CONSTS)
    rel = np.abs(got / want - 1.0)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(rel < 0.02)) and elapsed < 10.0
    report(6, ok,
           f"{len(edges) - 1} bins on [1.5, 4], max deviation {np.max(rel) * 100:.2f}% "
           f"(< 2%), {elapsed:.1f}s")


def test_criterion_7_resonance_integral():
    p = z.OscillatorParams(nu0=1.0, gamma=1e-6, gamma_prime=1.0, mass=1.0)
    quad, closed = z.resonance_integral(p, omega_max=100.0)
    rel = abs(quad - closed) / closed
    # closed form equals 3 pi^2 c^3 eps0 / (m nu0) identically for the
    # physical coefficient relation, in SI and in scaled units
    ident_ok = True
    for consts in (PhysicalConstants.si(), WEAK):
        pp = z.OscillatorParams.from_constants(1.0, consts)
        lhs = np.pi * pp.gamma_prime**2 / (2 * pp.gamma * pp.nu0)
        rhs = (3 * np.pi**2 * consts.c**3 * consts.eps0
               / (consts.electron_mass * pp.nu0))
        ident_ok &= abs(lhs / rhs - 1.0) < 1e-12
    ok = rel < 0.01 and ident_ok and closed == pytest.approx(np.pi / 2e-6)
    report(7, ok,
           f"quadrature {quad:.6e} vs closed {closed:.6e} "
           f"(rel dev {rel:.2e} < 1%), coefficient identity at round-off")


def test_criterion_8_oscillator_ground_state(oscillator_run):
    params, grid, ensemble, elapsed = oscillator_run
    pred = z.predicted_variance(params, WEAK)
    ok = ensemble.values.shape[0] >= 100_000 and elapsed < 60.0
    details = []
    for axis in range(3):
        var = float(np.var(ensemble.values[:, axis], ddof=1))
        sig = np.sqrt(coordinate_law(grid, params, np.eye(3)[axis]).variance)
        ks = z.ks_test(ensemble.values[:, axis], z.GaussianMode(sig).cdf, alpha=ALPHA)
        ok &= ks.passed and abs(var / pred - 1.0) < 0.03
        details.append(f"axis{axis}: var/pred={var / pred:.4f} D={ks.statistic:.4f}")
    report(8, ok, f"{'; '.join(details)}; {elapsed:.1f}s (< 60s)")


def test_criterion_9_exact_generating_function():
    ks = [[0.0, 0.0, 0.9], [0.5, 0.5, 0.70710678], [-0.3, 1.0, 0.2]]
    grid = z.grid_from_kvectors(ks, volume=1.0, constants=CONSTS)
    assert len(grid) == 6
    p = z.OscillatorParams(nu0=1.0, gamma=0.05, gamma_prime=1.0, mass=1.0)
    shat = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    sigma_q = np.sqrt(coordinate_law(grid, p, shat).variance)
    s = np.array([0.5, 1.0, 2.0]) / sigma_q
    ensemble = z.coordinate_ensemble("modified", grid, p, 0.0, 100_000, 109)
    g_emp, se = empirical_generating(ensemble.values @ shat, s)
    g_th = coordinate_law(grid, p, shat)(s)
    pulls = np.abs(g_emp.real - g_th) / se
    ok = bool(np.all(pulls < 3.0))
    report(9, ok,
           "sparse 6-mode grid, |empirical - product| / SE = "
           + ", ".join(f"{v:.2f}" for v in pulls) + " (all < 3)")


def test_criterion_10_bohr_radius(oscillator_run):
    params, grid, ensemble, _ = oscillator_run
    predicted = z.bohr_radius_sq(params, WEAK)
    empirical = float(np.mean(np.sum(ensemble.values[:, :2] ** 2, axis=1)))
    rel = abs(empirical / predicted - 1.0)
    ok = rel < 0.03
    report(10, ok,
           f"<qx^2 + qy^2> = {empirical:.4f} vs {predicted:.4f} "
           f"(rel dev {rel * 100:.2f}% < 3%)")


def test_criterion_11_figure_curves():
    alpha = 5.0
    mass, _ = integrate.quad(lambda x: z.quantum_oscillator_pdf(12, x, alpha),
                             -3.0, 3.0, limit=400)
    x = np.linspace(-1.2, 1.2, 20001)
    wave = z.hermite_function(12, alpha * x)
    zeros = int(np.sum(np.sign(wave[1:]) * np.sign(wave[:-1]) < 0))
    nodes = np.sort(np.polynomial.hermite.hermgauss(12)[0]) / alpha
    worst = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        if a < -0.9 or b > 0.9:
            continue
        q, _ = integrate.quad(lambda t: z.quantum_oscillator_pdf(12, t, alpha), a, b,
                              limit=200)
        cl, _ = integrate.quad(lambda t: z.Arcsine(1.0).pdf(t), a, b)
        worst = max(worst, abs(q - cl) / cl)
    xg = np.linspace(-4, 4, 2001)
    closed = np.exp(-xg**2) / np.sqrt(np.pi)
    ground_err = float(np.max(np.abs(z.quantum_oscillator_pdf(0, xg, 1.0) - closed)))
    ok = (abs(mass - 1.0) < 1e-6 and zeros == 12 and worst < 0.15
          and ground_err < 1e-12)
    report(11, ok,
           f"n=12 mass error {abs(mass - 1):.1e}, {zeros} interior zeros, "
           f"inter-node deviation {worst * 100:.1f}% (< 15%), "
           f"ground-state pointwise error {ground_err:.1e}")


def test_criterion_12_characteristic_roundtrip():
    x = np.linspace(-6.0, 6.0, 1201)
    pdf = z.invert_characteristic(z.GaussianGF(1.0), x, s_max=8.0)
    err = float(np.max(np.abs(pdf - z.GaussianMode(1.0).pdf(x))))
    ok = err < 1e-6
    report(12, ok, f"gaussian inversion max abs error {err:.2e} (< 1e-6)")
