"""Classical electron oscillator driven by a stochastic zero-point field.

The equation of motion (natural frequency nu0, radiation damping Gamma,
drive coefficient Gamma') is solved spectrally through the transfer
function

    h(nu) = Gamma' / (nu0^2 - nu^2 + i Gamma nu^3),

so a field realization maps to an oscillator coordinate by the exact
finite sum q(t) = sum_k eps_k sigma_k Re{ w_k conj(h~(w)) } with
h~(w) = exp(i w t) h(w). Random-phase (Boyer) realizations enter the same
formula through w_k = sqrt(2) exp(i theta_k), the unique substitution that
reduces the spectral solution to the phase-averaged one. So the coordinate
is the observable of fields.py with per-mode response h~ for exp(-i phi_k).

The Gaussian generating function of the coordinate is exact on any finite
mode set for the modified field; the Boyer coordinate follows the Bessel
product prod_k J0(A_k s) instead. dists.FiniteLaw.of(kind, grid, d, h.real,
h.imag), with h = transfer(grid.omega, p), holds both laws. In the unbounded
limit the resonance approximation gives the per-axis variance
sigma_q^2 = hbar / (2 m nu0), and confining the distribution to two
quadrature axes reproduces the ground-state mean square radius hbar / (m nu0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .fields import SampleSet, _finite_phase, sample_observable
from .lattice import ModeGrid, polarization_basis, vector_lengths

RESONANCE_WARN = 1e-2  # largest Gamma*nu0 of the resonance approximation
CUTOFF_WARN = 10.0     # smallest omega_max / nu0 of the resonance comparison
QUADRATURE_REL_TOL = 1e-3  # largest change of resonance_integral on doubling panels
BASE_PANELS = 24       # resonance_integral's first panel count per edge run
MAX_DOUBLINGS = 6      # its panel count doubles at most this often (24 -> 1536)
WINDOW_SCALE = 50.0    # half-width of its linear panel window, in Gamma*nu0^3


class ConvergenceError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class OscillatorParams:
    nu0: float
    gamma: float          # radiation damping time Gamma
    gamma_prime: float    # drive coefficient Gamma' (charge/mass)
    mass: float

    def __post_init__(self):
        for name in ("nu0", "gamma", "gamma_prime", "mass"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and strictly positive")

    @classmethod
    def from_constants(cls, nu0: float, constants: PhysicalConstants) -> "OscillatorParams":
        e = constants.electron_charge
        m = constants.electron_mass
        try:
            gamma = e**2 / (6.0 * np.pi * constants.eps0 * m * constants.c**3)
        except ArithmeticError:   # e**2 or c**3 overflows, or c**3 underflows to 0
            gamma = np.nan        # refused below as any gamma outside (0, inf) is
        return cls(nu0=nu0, gamma=gamma, gamma_prime=e / m, mass=m)

    @property
    def resonance_parameter(self) -> float:
        """Gamma * nu0; the resonance approximation needs this << 1."""
        return self.gamma * self.nu0

    @property
    def resonance_ok(self) -> bool:
        return self.resonance_parameter <= RESONANCE_WARN


def transfer(nu, p: OscillatorParams):
    """Complex response h(nu) = Gamma' / (nu0^2 - nu^2 + i Gamma nu^3)."""
    nu = np.asarray(nu, dtype=float)
    out = p.gamma_prime / (p.nu0**2 - nu**2 + 1j * p.gamma * nu**3)
    return complex(out) if out.ndim == 0 else out


def _response(grid: ModeGrid, p: OscillatorParams, t: float) -> np.ndarray:
    """Per-mode response h~(w_k) = exp(i w_k t) h(w_k) of the coordinate at t."""
    wt = _finite_phase(lambda: grid.omega * t, "w t of field 't'")
    return np.exp(1j * wt) * transfer(grid.omega, p)


def coordinate_ensemble(kind, grid: ModeGrid, p: OscillatorParams, t: float,
                        n: int, seed: int, start: int = 0) -> SampleSet:
    """n independent coordinate vectors, realizations start..start+n-1;
    realization 0 reproduces the slow-path reference
    coordinate_sample(draw_realization(...)) of tests/reference.py."""
    ht = _response(grid, p, t)
    return sample_observable(kind, grid, ht.real, ht.imag, n, seed, start, {
        "t": float(t), "params": {"nu0": p.nu0, "gamma": p.gamma,
                                  "gamma_prime": p.gamma_prime, "mass": p.mass}})


def predicted_variance(p: OscillatorParams, constants: PhysicalConstants) -> float:
    """Resonance-limit per-axis coordinate variance hbar / (2 m nu0)."""
    return constants.hbar / (2.0 * p.mass * p.nu0)


def bohr_radius_sq(p: OscillatorParams, constants: PhysicalConstants) -> float:
    """Ground-state mean square orbit radius of two quadrature oscillators:
    <qx^2 + qy^2> = 2 sigma_q^2 = hbar / (m nu0)."""
    return 2.0 * predicted_variance(p, constants)


# ------------------------------------------------------ resonance integral

def _gauss_panels(edges, f, nodes, weights):
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        total += half * np.sum(weights * f(0.5 * (a + b) + half * nodes))
    return total


def _resonance_edges(p: OscillatorParams, omega_max: float, panels: int):
    nu0 = p.nu0
    width = WINDOW_SCALE * p.gamma * nu0**3
    lo = max(nu0 - width, 0.0)
    hi = min(nu0 + width, omega_max)
    window = np.linspace(lo, hi, 2 * panels + 1) if hi > lo else np.array([])
    # edges approach the window geometrically in distance from nu0
    left = np.array([0.0])
    if lo > 0.0:
        left = nu0 - np.geomspace(nu0, width, panels + 1)
        left[[0, -1]] = 0.0, lo
    right = np.array([omega_max])
    if hi < omega_max:
        right = nu0 + np.geomspace(width, omega_max - nu0, panels + 1)
        right[[0, -1]] = hi, omega_max
    return np.unique(np.clip(np.concatenate([left, window, right]), 0.0, omega_max))


def resonance_integral(p: OscillatorParams, omega_max: float):
    """Quadrature of integral_0^omega_max w^3 |h(w)|^2 dw next to its
    resonance-approximation closed form pi Gamma'^2 / (2 Gamma nu0).

    The integrand is a narrow near-Lorentzian peak at nu0; panels are
    linear inside a window of half-width WINDOW_SCALE*Gamma*nu0^3 and
    geometric outside. The panel count doubles from BASE_PANELS until two
    successive sums agree to QUADRATURE_REL_TOL, and the finer is returned;
    a non-finite sum or MAX_DOUBLINGS doublings raise a ConvergenceError.
    """
    if not omega_max > 0.0:
        raise ValueError("omega_max must be strictly positive")

    def f(w):
        h = transfer(w, p)
        return w**3 * (h.real**2 + h.imag**2)

    nodes, weights = np.polynomial.legendre.leggauss(16)
    # a huge omega_max overflows the integrand to inf or nan, and a nan
    # fails every comparison, so only a passed test counts as converged
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fine = np.nan   # the first sum has none to agree with
        for doubling in range(MAX_DOUBLINGS + 1):
            coarse, fine = fine, _gauss_panels(
                _resonance_edges(p, omega_max, BASE_PANELS * 2**doubling), f, nodes, weights)
            if abs(fine - coarse) <= QUADRATURE_REL_TOL * abs(fine):
                return float(fine), float(np.pi * p.gamma_prime**2 / (2.0 * p.gamma * p.nu0))
            if not np.isfinite(fine):
                raise ConvergenceError(f"resonance quadrature did not converge: a sum is {fine}")
        raise ConvergenceError(
            f"resonance quadrature did not converge: {MAX_DOUBLINGS} panel doublings still "
            f"moved the value by {abs(fine - coarse) / abs(fine):.2e} (> {QUADRATURE_REL_TOL:g})")


# --------------------------------------------------------- resonance grid

AXIS_DIRECTIONS = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])


def fibonacci_directions(n: int) -> np.ndarray:
    """n roughly uniform unit vectors on the sphere (golden-angle spiral)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z**2)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def resonance_shell_grid(p: OscillatorParams, constants: PhysicalConstants,
                         n_shells: int = 96, directions=None,
                         coverage: float = 0.999) -> ModeGrid:
    """Radial-shell quadrature grid clustered on the oscillator resonance.

    Shell frequencies sit at equal-mass quantiles of the Lorentzian that
    locally matches |h|^2 (half-width Gamma*nu0^2/2), and each mode carries
    an effective scale encoding its k-space measure,

        sigma_s^2 = hbar w_s^3 dOmega_s / (4 pi^2 eps0 c^3 n_dir),

    with dOmega_s the importance-weighted cell width. Summing over the grid
    then reproduces the continuum coordinate variance up to the uncovered
    tail mass (1 - coverage) plus a quadrature error that is negligible for
    tens of shells. A cubic lattice dense enough to resolve a realistic
    linewidth is infeasible, which is why oscillator ensembles default to
    this grid; exactness checks of the product generating function remain
    geometry independent and work on any grid.
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")
    if n_shells < 2:
        raise ValueError("need at least 2 shells")
    if directions is None:
        dirs = AXIS_DIRECTIONS
    elif isinstance(directions, (int, np.integer)):
        if directions < 1:
            raise ValueError(f"directions must be a count >= 1, got {directions}")
        dirs = fibonacci_directions(int(directions))
    else:
        dirs = np.asarray(directions, dtype=float)
        dirs = dirs / vector_lengths(dirs, "directions", rows=True)[:, None]
    n_dir = dirs.shape[0]

    half_width = p.gamma * p.nu0**2 / 2.0
    f_lo = (1.0 - coverage) / 2.0
    f_mid = f_lo + (np.arange(n_shells) + 0.5) * (1.0 - 2.0 * f_lo) / n_shells
    df = (1.0 - 2.0 * f_lo) / n_shells
    omega_s = p.nu0 + half_width * np.tan(np.pi * (f_mid - 0.5))
    if np.any(omega_s <= 0.0):
        raise ValueError(f"shell quantiles reach non-positive frequencies at Gamma*nu0 = "
                         f"{p.resonance_parameter:.3g}: lower the coverage or Gamma*nu0")
    # importance weight: cell mass over the local Lorentzian density
    lorentz = (half_width / np.pi) / ((omega_s - p.nu0) ** 2 + half_width**2)
    cell_width = df / lorentz

    c = constants.c
    sigma_sq = (constants.hbar * omega_s**3 * cell_width
                / (4.0 * np.pi**2 * c**3 * constants.eps0 * n_dir))

    # one wavevector per (shell, direction), the direction varying fastest
    return ModeGrid.from_wavevectors(
        ((omega_s / c)[:, None, None] * dirs).reshape(-1, 3), np.repeat(omega_s, n_dir),
        np.repeat(np.sqrt(sigma_sq), n_dir),
        [np.tile(e, (n_shells, 1)) for e in polarization_basis(dirs)],
        constants=constants, grid_type="shell", omega_cutoff=float(np.max(omega_s)))
