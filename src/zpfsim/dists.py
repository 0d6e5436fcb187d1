"""Analytic target distributions, generating functions, and their inversion.

These are the oracles every Monte Carlo result is tested against: the
Gaussian single-mode and total-field laws of the quantized ground state,
the arcsine law of a fixed-amplitude random-phase mode, the Hermite-
oscillator densities, the Bessel-product and Gaussian generating
(characteristic) functions, and the numerical inverse transform

    pdf(x) = (1/2 pi) * integral g(s) exp(i s x) ds

that turns a generating function back into a density.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, ndtr

from .constants import PhysicalConstants
from .fields import observable_amplitudes
from .lattice import ModeGrid

HERMITE_MAX_LEVEL = 170  # 2^n n! overflows double precision beyond this
_BLOCK_ELEMENTS = 2**20  # size of the largest (rows x s) temporary in a blocked loop


class InsufficientRangeError(ValueError):
    """Generating function has not decayed at the edge of the s-range."""


# ------------------------------------------------------------ closed forms

def normal_square(a) -> bool:
    """a > 0 and a^2 a finite normal double, as 1/sqrt(a^2 - x^2) needs."""
    a = float(a)
    return a > 0.0 and sys.float_info.min <= a * a <= sys.float_info.max


def classical_oscillator_pdf(x, amplitude: float):
    """Position density 1/(pi*sqrt(A^2 - x^2)) of a fixed-amplitude sinusoid.

    The density is unbounded at the endpoints; x = +-A evaluates to inf and
    statistical tests should use the cdf.
    """
    if not normal_square(amplitude):
        raise ValueError(f"amplitude must lie in about [1.5e-154, 1.3e154], so that its "
                         f"square is a finite normal double, got {amplitude!r}")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) <= amplitude
    with np.errstate(divide="ignore"):
        out[inside] = 1.0 / (np.pi * np.sqrt(amplitude**2 - x[inside] ** 2))
    return float(out) if out.ndim == 0 else out


def arcsine_cdf(x, amplitude: float):
    """Antiderivative of the classical-oscillator density:
    (1/pi) arcsin(x/A) + 1/2, clamped to [0, 1] outside the support."""
    if not amplitude > 0.0:
        raise ValueError("amplitude must be strictly positive")
    x = np.asarray(x, dtype=float)
    z = np.clip(x / amplitude, -1.0, 1.0)
    out = np.arcsin(z) / np.pi + 0.5
    return float(out) if out.ndim == 0 else out


def hermite_function(n: int, xi):
    """Orthonormal Hermite function h_n(xi) by the stable normalized
    recurrence h_{m+1} = sqrt(2/(m+1)) xi h_m - sqrt(m/(m+1)) h_{m-1}
    (the closed form with 2^n n! overflows long before n = 170)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError("level n must be a non-negative integer")
    if n > HERMITE_MAX_LEVEL:
        raise ValueError(f"level n = {n} exceeds double-precision cap {HERMITE_MAX_LEVEL}")
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):  # xi^2 = inf far out gives exp(-inf) = 0
        h_prev = np.pi**-0.25 * np.exp(-0.5 * xi**2)
    if n == 0:
        return h_prev
    h = np.sqrt(2.0) * xi * h_prev
    for m in range(1, n):
        h_prev, h = h, np.sqrt(2.0 / (m + 1)) * xi * h - np.sqrt(m / (m + 1)) * h_prev
    return h


def quantum_oscillator_pdf(n: int, x, alpha: float):
    """|psi_n|^2 for the harmonic oscillator, alpha = sqrt(m*omega/hbar)."""
    if not alpha > 0.0:
        raise ValueError("alpha must be strictly positive")
    x = np.asarray(x, dtype=float)
    out = alpha * hermite_function(n, alpha * x) ** 2
    return float(out) if out.ndim == 0 else out


def gaussian_mode_pdf(e, sigma: float):
    """Normal density with standard deviation sigma (single-mode law)."""
    if not sigma > 0.0:
        raise ValueError("sigma must be strictly positive")
    e = np.asarray(e, dtype=float)
    out = np.exp(-(e**2) / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma**2)
    return float(out) if out.ndim == 0 else out


def gaussian_cdf(x, sigma: float):
    if not sigma > 0.0:
        raise ValueError("sigma must be strictly positive")
    x = np.asarray(x, dtype=float)
    out = ndtr(x / sigma)
    return float(out) if out.ndim == 0 else out


def total_field_sigma(omega_cutoff: float, constants: PhysicalConstants) -> float:
    """Total-field per-component scale: sigma_E^2 = hbar*w_c^4/(24 pi^2 eps0 c^3)."""
    if not omega_cutoff > 0.0:
        raise ValueError("omega_cutoff must be strictly positive")
    return float(np.sqrt(
        constants.hbar * omega_cutoff**4
        / (24.0 * np.pi**2 * constants.eps0 * constants.c**3)
    ))


def binned_energy_density(grid: ModeGrid, bin_edges):
    """Lattice energy density per omega bin: sum of hbar*w/2 over modes in
    each bin, divided by V and the bin width."""
    if grid.volume is None:
        raise ValueError("binned energy density needs a grid with a volume")
    edges = np.asarray(bin_edges, dtype=float)
    hbar = grid.constants.hbar
    idx = np.digitize(grid.omega, edges)
    widths = np.diff(edges)
    out = np.zeros(len(edges) - 1)
    for b in range(1, len(edges)):
        sel = idx == b
        out[b - 1] = 0.5 * hbar * np.sum(grid.omega[sel]) / (grid.volume * widths[b - 1])
    return out


def energy_density_bin_average(bin_edges, constants: PhysicalConstants):
    """Exact bin averages of the spectral energy density hbar*w^3/(2 pi^2 c^3)."""
    edges = np.asarray(bin_edges, dtype=float)
    w1, w2 = edges[:-1], edges[1:]
    return constants.hbar * (w2**4 - w1**4) / (8.0 * np.pi**2 * constants.c**3) / (w2 - w1)


# ---------------------------------------------------- generating functions

def _gaussian_cf(s, var: float):
    """exp(-s^2 var / 2): a float for scalar s, else an array."""
    s = np.asarray(s, dtype=float)
    out = np.exp(-(s**2) * var / 2.0)
    return float(out) if out.ndim == 0 else out


def gaussian_generating(s, sigma: float):
    """Characteristic function exp(-s^2 sigma^2 / 2) of a centered normal."""
    return _gaussian_cf(s, sigma**2)


def boyer_generating(s, s_direction, grid: ModeGrid):
    """Bessel-product generating function of the random-phase field:
    prod_k J0(A_k s) with A_k = sqrt(2) sigma_k |shat . eps_k|, the
    fields.observable_amplitudes of the Boyer field at unit response.

    J0 is even, so each factor depends only on |s| and on A_k. The product
    is evaluated once per distinct |s| and once per distinct A_k, that
    factor raised to the number of modes sharing it, in blocks of about
    2^20 factors.
    """
    amps, mult = np.unique(observable_amplitudes("boyer", grid, 1.0, 0.0, s_direction),
                           return_counts=True)
    s = np.asarray(s, dtype=float)
    abs_s, inverse = np.unique(np.abs(s), return_inverse=True)
    out = np.ones_like(abs_s)
    block = max(1, _BLOCK_ELEMENTS // max(1, abs_s.size))
    for lo in range(0, amps.size, block):
        out *= np.prod(j0(np.outer(abs_s, amps[lo:lo + block])) ** mult[lo:lo + block],
                       axis=1)
    out = out[inverse].reshape(s.shape)
    return float(out) if out.ndim == 0 else out


def lattice_gaussian_generating(s, s_direction, grid: ModeGrid):
    """Gaussian generating function with the variance summed over the same
    grid, exp(-s^2/2 * sum_k sigma_k^2 (shat.eps_k)^2). This is the
    retained-quadratic-terms limit of the Bessel product on that grid."""
    return _gaussian_cf(s, grid.component_variance(s_direction))


@dataclass(frozen=True)
class GaussianGF:
    sigma: float

    def __call__(self, s):
        return gaussian_generating(s, self.sigma)


@dataclass(frozen=True)
class BesselProductGF:
    grid: ModeGrid
    s_direction: tuple = (0.0, 0.0, 1.0)

    def __call__(self, s):
        return boyer_generating(s, self.s_direction, self.grid)


def _chirp_z(a, s, x0: float, dx: float, m: int) -> np.ndarray:
    """sum_j a_j exp(i (x0 + k dx) s_j) for k = 0..m-1 on a uniform s grid.

    Bluestein's identity k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum
    into one convolution with the chirp w(t) = exp(i dx ds t^2 / 2), done
    by FFT at a power-of-two length of at least n + m - 1.
    """
    n = s.size
    ds = (s[-1] - s[0]) / (n - 1)
    t = np.arange(1 - n, m, dtype=float)
    w = np.exp(0.5j * (dx * ds) * (t * t))  # t^2 is exact in double up to 2^53
    size = 1 << (n + m - 2).bit_length()
    u = np.fft.fft(a * np.exp(1j * x0 * s) * w[n - 1::-1], size)
    conv = np.fft.ifft(u * np.fft.fft(w.conj(), size))[n - 1:n - 1 + m]
    k = np.arange(m, dtype=float)
    return np.exp(1j * k * dx * s[0]) * w[n - 1:] * conv


def _is_uniform(x: np.ndarray) -> bool:
    """True when x has at least two points and each x_m lies within 1e-12
    of the span from x_0 + m dx, dx = (x_{M-1} - x_0) / (M - 1)."""
    if x.size < 2:
        return False
    span = x[-1] - x[0]
    ideal = x[0] + np.arange(x.size) * (span / (x.size - 1))
    return bool(np.max(np.abs(x - ideal)) <= 1e-12 * abs(span))


def invert_characteristic(gf, x_grid, s_max: float, n_s: int = 8193,
                          decay_tol: float = 1e-10) -> np.ndarray:
    """Recover a density from its generating function by discretized
    quadrature of the inverse transform over s in [-s_max, s_max].

    On a uniform x grid of M points (every ``np.linspace`` grid) the
    trapezoid sum over the n_s nodes is a chirp-z transform, evaluated by
    FFT in O((M + n_s) log(M + n_s)) with O(M + n_s) memory. Any other x
    grid gets the direct sum, in blocks of rows that hold about 2^20
    elements each, so memory stays bounded there too.

    The caller supplies the range; if |g| at the range edge exceeds
    ``decay_tol`` the transform is untrustworthy and an
    InsufficientRangeError is raised. The result is renormalized to unit
    mass on x_grid. A symmetric s-grid maps a symmetric gf to a symmetric
    density.
    """
    if n_s < 2:
        raise ValueError("n_s must be at least 2")
    x_grid = np.asarray(x_grid, dtype=float)
    ds = 2.0 * s_max / (n_s - 1)
    # exactly antisymmetric (np.linspace is not), so an even gf sees each
    # |s| twice and can evaluate it once
    s = (np.arange(n_s) - (n_s - 1) / 2) * ds
    g = np.asarray(gf(s), dtype=complex)
    edge = max(abs(g[0]), abs(g[-1]))
    if edge > decay_tol:
        raise InsufficientRangeError(
            f"insufficient s-range: |g| = {edge:.3g} at s = +-{s_max:g} "
            f"exceeds decay tolerance {decay_tol:g}"
        )
    wg = g * ds  # trapezoid weights: ds, ds/2 at both ends
    wg[[0, -1]] *= 0.5
    if _is_uniform(x_grid):
        dx = (x_grid[-1] - x_grid[0]) / (x_grid.size - 1)
        pdf = _chirp_z(wg, s, x_grid[0], dx, x_grid.size).real
    else:
        pdf = np.empty_like(x_grid)
        rows = max(1, _BLOCK_ELEMENTS // n_s)
        for lo in range(0, x_grid.size, rows):
            phase = np.outer(x_grid[lo:lo + rows], s)
            pdf[lo:lo + rows] = np.cos(phase) @ wg.real - np.sin(phase) @ wg.imag
    pdf /= 2.0 * np.pi
    mass = np.trapezoid(pdf, x_grid)
    if not mass > 0.0:
        raise InsufficientRangeError("inverted density has non-positive mass")
    return pdf / mass


# ------------------------------------------------- distribution catalogue

@dataclass(frozen=True)
class GaussianMode:
    sigma: float

    def pdf(self, x):
        return gaussian_mode_pdf(x, self.sigma)

    def cdf(self, x):
        return gaussian_cdf(x, self.sigma)


@dataclass(frozen=True)
class Arcsine:
    """Law of A*cos(theta) with theta uniform; support [-A, A]."""

    amplitude: float

    def pdf(self, x):
        return classical_oscillator_pdf(x, self.amplitude)

    def cdf(self, x):
        return arcsine_cdf(x, self.amplitude)

