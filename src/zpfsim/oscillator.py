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
product prod_k J0(A_k s) over fields.observable_amplitudes instead. In the
unbounded limit the resonance approximation gives the
per-axis variance sigma_q^2 = hbar / (2 m nu0), and confining the
distribution to two quadrature axes reproduces the ground-state mean
square radius hbar / (m nu0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import PhysicalConstants
from .dists import _gaussian_cf
from .fields import (FieldRealization, SampleSet, observable_amplitudes, observe,
                     sample_observable)
from .lattice import ModeGrid, polarization_basis

RESONANCE_WARN = 1e-2
QUADRATURE_REL_TOL = 1e-3  # largest change of resonance_integral on doubling panels


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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_constants(cls, nu0: float, constants: PhysicalConstants) -> "OscillatorParams":
        e = constants.electron_charge
        m = constants.electron_mass
        gamma = e**2 / (6.0 * np.pi * constants.eps0 * m * constants.c**3)
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
    return np.exp(1j * grid.omega * t) * transfer(grid.omega, p)


def coordinate_sample(real: FieldRealization, grid: ModeGrid, p: OscillatorParams,
                      t: float) -> np.ndarray:
    """Oscillator coordinate vector for one field realization: the slow-path
    reference sum_k sigma_k Re{w_k conj(h~(w_k))} eps_k, with w_k =
    sqrt(2) exp(i theta_k) for Boyer realizations."""
    ht = _response(grid, p, t)
    return observe(real, grid, ht.real, ht.imag) @ grid.eps


def coordinate_ensemble(kind, grid: ModeGrid, p: OscillatorParams, t: float,
                        n: int, seed: int, start: int = 0,
                        chunk: int = kernels.CHUNK) -> SampleSet:
    """n independent coordinate vectors; row j reproduces the slow path
    coordinate_sample(draw_realization(...)) for realization index start+j."""
    ht = _response(grid, p, t)
    return sample_observable(kind, grid, ht.real, ht.imag, n, seed, start, chunk, {
        "t": float(t), "params": {"nu0": p.nu0, "gamma": p.gamma,
                                  "gamma_prime": p.gamma_prime, "mass": p.mass}})


def coordinate_axis_variance(grid: ModeGrid, p: OscillatorParams, direction) -> float:
    """Exact per-grid variance of the coordinate along a unit direction:
    sum_k A_k^2 with A_k = sigma_k |h(w_k)| |d.eps_k| (fields.observable_amplitudes)."""
    h = transfer(grid.omega, p)
    return float(np.sum(observable_amplitudes("modified", grid, h.real, h.imag,
                                              direction) ** 2))


def oscillator_generating(s, s_direction, grid: ModeGrid, p: OscillatorParams):
    """Gaussian generating function exp(-(s^2/2) sum_k A_k^2) of the
    coordinate, A_k = sigma_k |h(w_k)| |shat.eps_k| the observable_amplitudes
    of the modified field, for which it is exact on any grid. The Boyer
    coordinate follows prod_k J0(A_k s) over its own amplitudes (sqrt(2)
    times these), which this Gaussian approaches only when many comparable
    modes contribute."""
    return _gaussian_cf(s, coordinate_axis_variance(grid, p, s_direction))


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


def _resonance_edges(p: OscillatorParams, omega_max: float, base_panels: int,
                     window_scale: float):
    nu0 = p.nu0
    width = window_scale * p.gamma * nu0**3
    lo = max(nu0 - width, 0.0)
    hi = min(nu0 + width, omega_max)
    window = np.linspace(lo, hi, 2 * base_panels + 1) if hi > lo else np.array([])
    # edges approach the window geometrically in distance from nu0
    left = np.array([0.0])
    if lo > 0.0:
        dist = np.geomspace(nu0, width, base_panels + 1)
        left = nu0 - dist
        left[0] = 0.0
        left[-1] = lo
    right = np.array([omega_max])
    if hi < omega_max:
        dist = np.geomspace(width, omega_max - nu0, base_panels + 1)
        right = nu0 + dist
        right[0] = hi
        right[-1] = omega_max
    edges = np.concatenate([left, window, right])
    return np.unique(np.clip(edges, 0.0, omega_max))


def resonance_integral(p: OscillatorParams, omega_max: float,
                       base_panels: int = 24, window_scale: float = 50.0):
    """Quadrature of integral_0^omega_max w^3 |h(w)|^2 dw next to its
    resonance-approximation closed form pi Gamma'^2 / (2 Gamma nu0).

    The integrand is a narrow near-Lorentzian peak at nu0; panels are
    linear inside a window of half-width window_scale*Gamma*nu0^3 and
    geometric outside. Doubling the panel count must change the result by
    less than QUADRATURE_REL_TOL, otherwise a ConvergenceError is raised.
    """
    if not omega_max > 0.0:
        raise ValueError("omega_max must be strictly positive")
    if omega_max < 10.0 * p.nu0:
        warnings.warn(
            f"omega_max = {omega_max:g} is below 10*nu0; the comparison with the "
            "resonance closed form will be degraded", stacklevel=2)

    def f(w):
        h = transfer(w, p)
        return w**3 * (h.real**2 + h.imag**2)

    nodes, weights = np.polynomial.legendre.leggauss(16)
    coarse = _gauss_panels(_resonance_edges(p, omega_max, base_panels, window_scale),
                           f, nodes, weights)
    fine = _gauss_panels(_resonance_edges(p, omega_max, 2 * base_panels, window_scale),
                         f, nodes, weights)
    if abs(fine - coarse) > QUADRATURE_REL_TOL * abs(fine):
        raise ConvergenceError(
            f"resonance quadrature did not converge: doubling panels moved the "
            f"value by {abs(fine - coarse) / abs(fine):.2e} (> {QUADRATURE_REL_TOL:g})"
        )
    closed = np.pi * p.gamma_prime**2 / (2.0 * p.gamma * p.nu0)
    return float(fine), float(closed)


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
        norm = np.linalg.norm(dirs, axis=1) if dirs.ndim == 2 and dirs.shape[1] == 3 else None
        if norm is None or not np.all(np.isfinite(norm) & (norm > 0.0)):
            raise ValueError("directions must be a list of finite, nonzero 3-vectors")
        dirs = dirs / norm[:, None]
    n_dir = dirs.shape[0]

    half_width = p.gamma * p.nu0**2 / 2.0
    f_lo = (1.0 - coverage) / 2.0
    f_mid = f_lo + (np.arange(n_shells) + 0.5) * (1.0 - 2.0 * f_lo) / n_shells
    df = (1.0 - 2.0 * f_lo) / n_shells
    omega_s = p.nu0 + half_width * np.tan(np.pi * (f_mid - 0.5))
    if np.any(omega_s <= 0.0):
        raise ValueError(
            f"shell quantiles reach non-positive frequencies at Gamma*nu0 = "
            f"{p.resonance_parameter:.3g}: lower the coverage ('shells.coverage') or "
            f"narrow the line with a smaller charge ('constants.electron_charge'; "
            f"0.01 with the other constants at 1 gives Gamma*nu0 = 5.3e-6)")
    # importance weight: cell mass over the local Lorentzian density
    lorentz = (half_width / np.pi) / ((omega_s - p.nu0) ** 2 + half_width**2)
    cell_width = df / lorentz

    c = constants.c
    sigma_sq = (constants.hbar * omega_s**3 * cell_width
                / (4.0 * np.pi**2 * c**3 * constants.eps0 * n_dir))

    # rows (shell, direction, polarization), the polarization varying fastest
    k = (omega_s / c)[:, None, None] * dirs
    return ModeGrid(
        k=np.repeat(k.reshape(-1, 3), 2, axis=0),
        lam=np.tile(np.array([1, 2], dtype=np.int64), n_shells * n_dir),
        eps=np.tile(np.stack(polarization_basis(dirs), axis=1).reshape(-1, 3), (n_shells, 1)),
        omega=np.repeat(omega_s, 2 * n_dir),
        sigma=np.repeat(np.sqrt(sigma_sq), 2 * n_dir), constants=constants,
        grid_type="shell", omega_cutoff=float(np.max(omega_s)),
    )
