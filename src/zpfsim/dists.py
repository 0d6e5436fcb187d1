"""Analytic target distributions, generating functions, and their inversion.

These are the oracles every Monte Carlo result is tested against. The one
law class, FiniteLaw, is the exact law of a field component or oscillator
coordinate on a finite mode set: its generating (characteristic) function
as a call, and a closed-form pdf and cdf for a modified law (normal) and one
Boyer row (arcsine), the one-row laws GaussianMode and Arcsine build. Beside
it: the total-field scale, the Hermite-oscillator densities and the
numerical inverse transform

    pdf(x) = (1/2 pi) * integral g(s) exp(i s x) ds

that turns a generating function back into a density.

The Gaussian cdf is zpfsim's own (_ndtr): Cody's rational approximations
with a tail factor exp(-z^2) built from correctly rounded arithmetic, so
its bits do not depend on numpy's SIMD level. scipy is imported only for
the Bessel function j0 of the Boyer law, on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .fields import FieldKind, _as_kind, _mode_coefficients
from .lattice import ModeGrid, unit_vector

HERMITE_MAX_LEVEL = 170  # 2^n n! overflows double precision beyond this
_BLOCK_ELEMENTS = 2**20  # size of the largest (|s| x A_k) temporary of the Bessel product


class InsufficientRangeError(ValueError):
    """Generating function has not decayed at the edge of the s-range."""


# ------------------------------------------------------------ closed forms

def normal_square(a) -> bool:
    """a > 0 and a^2 a finite normal double, as 1/sqrt(a^2 - x^2) needs."""
    a = float(a)
    return a > 0.0 and sys.float_info.min <= a * a <= sys.float_info.max


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


def total_field_sigma(omega_cutoff: float, constants: PhysicalConstants) -> float:
    """Total-field per-component scale: sigma_E^2 = hbar*w_c^4/(24 pi^2 eps0 c^3)."""
    if not omega_cutoff > 0.0:
        raise ValueError("omega_cutoff must be strictly positive")
    return float(np.sqrt(
        constants.hbar * omega_cutoff**4
        / (24.0 * np.pi**2 * constants.eps0 * constants.c**3)
    ))


# ---------------------------------------------------------- the exact laws

@dataclass(frozen=True, eq=False)
class FiniteLaw:
    """Exact law of one component of a linear observable on a finite mode set:
    sum_k A_k cos(theta_k) for Boyer rows, whose A_k carry the sqrt(2), and
    sum_k A_k N_k for modified rows. ``of`` is the one place a grid and a
    per-mode response re + i*im (by default 1, the field's own) become a law:
    along the unit direction d, A_k = |hypot(a_k, b_k) (eps_k . d)| over the
    rows (a_k, b_k) of fields._mode_coefficients."""

    kind: FieldKind
    amplitudes: np.ndarray

    @classmethod
    def of(cls, kind, grid: ModeGrid, direction, re=1.0, im=0.0) -> "FiniteLaw":
        a, b = _mode_coefficients(kind := _as_kind(kind), grid.sigma, re, im)
        return cls(kind, np.abs(np.hypot(a, b) * (grid.eps @ unit_vector(direction))))

    @property
    def variance(self) -> float:
        """sum_k A_k^2 in row order, halved for Boyer rows (mean cos^2 is 1/2)."""
        var = float(np.sum(self.amplitudes**2))
        return var / 2.0 if self.kind is FieldKind.BOYER else var

    def _closed_form(self) -> float:
        """The parameter p of a law with a closed-form pdf and cdf: the variance
        > 0 of a modified law (normal), or A of one Boyer row (arcsine)."""
        if self.kind is FieldKind.MODIFIED:
            if not self.variance > 0.0:
                raise ValueError(f"a modified law of variance {self.variance!r} has no pdf or cdf")
            return self.variance
        if self.amplitudes.size != 1:
            raise ValueError(f"no closed-form pdf or cdf for {self.amplitudes.size} Boyer rows")
        return float(self.amplitudes[0])

    def pdf(self, x):
        """The normal density of variance for modified rows. For one Boyer row
        the density 1/(pi*sqrt(A^2 - x^2)) of A*cos(theta), which is inf at
        x = +-A: statistical tests should use the cdf."""
        x, p = np.asarray(x, dtype=float), self._closed_form()
        if self.kind is FieldKind.MODIFIED:
            out = np.exp(-(x**2) / (2.0 * p)) / np.sqrt(2.0 * np.pi * p)
        elif not normal_square(p):
            raise ValueError(f"amplitude must lie in about [1.5e-154, 1.3e154], so that "
                             f"its square is a finite normal double, got {p!r}")
        else:
            out = np.zeros_like(x)
            inside = np.abs(x) <= p
            with np.errstate(divide="ignore"):
                out[inside] = 1.0 / (np.pi * np.sqrt(p**2 - x[inside] ** 2))
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        """The normal cdf of variance for modified rows, by _ndtr (see there).
        For one Boyer row the arcsine cdf (1/pi) arcsin(x/A) + 1/2, clamped to
        [0, 1] outside the support."""
        x, p = np.asarray(x, dtype=float), self._closed_form()
        if self.kind is FieldKind.MODIFIED:
            out = _ndtr(x, math.sqrt(p))
        elif not p > 0.0:
            raise ValueError("amplitude must be strictly positive")
        else:
            out = np.arcsin(np.clip(x / p, -1.0, 1.0)) / np.pi + 0.5
        return float(out) if out.ndim == 0 else out

    def __call__(self, s):
        """exp(-s^2 variance / 2) for modified rows. For Boyer rows prod_k J0(A_k s),
        evaluated once per distinct |s| (J0 is even) and once per distinct A_k.
        The A_k are grouped by the number m of modes sharing them; each group's
        product p_m = prod J0(A_k |s|) is formed in one reused buffer of about
        2^20 factors, raised to the m-th power by repeated squaring, and the
        groups are multiplied in ascending m. Only j0 and correctly rounded
        products are used (np.prod folds each row in order), so unlike
        np.power the bits do not depend on numpy's SIMD level."""
        s = np.asarray(s, dtype=float)
        if self.kind is FieldKind.MODIFIED:
            out = np.exp(-(s**2) * self.variance / 2.0)
            return float(out) if out.ndim == 0 else out
        from scipy.special import j0   # here: scipy.special is half of a CLI start-up

        amps, mult = np.unique(self.amplitudes, return_counts=True)
        abs_s, inverse = np.unique(np.abs(s), return_inverse=True)
        block = max(1, _BLOCK_ELEMENTS // max(1, abs_s.size))
        buf = np.empty(abs_s.size * min(block, amps.size))
        out = np.ones_like(abs_s)
        for m in np.unique(mult):
            group = amps[mult == m]
            p = np.ones_like(abs_s)
            for lo in range(0, group.size, block):
                part = group[lo:lo + block]
                factors = buf[:abs_s.size * part.size].reshape(abs_s.size, part.size)
                np.multiply.outer(abs_s, part, out=factors)
                p *= np.prod(j0(factors, out=factors), axis=1)
            out *= _int_power(p, int(m))
        out = out[inverse].reshape(s.shape)
        return float(out) if out.ndim == 0 else out


def GaussianMode(sigma: float) -> FiniteLaw:
    """The centered normal law of standard deviation sigma > 0, one modified row."""
    if not sigma > 0.0:
        raise ValueError("sigma must be strictly positive")
    return FiniteLaw(FieldKind.MODIFIED, np.array([sigma], dtype=float))


GaussianGF = GaussianMode  # the name perfbench's gf-inversion uses; it remains for it


def Arcsine(amplitude: float) -> FiniteLaw:
    """The law of A*cos(theta) with theta uniform, support [-A, A]: a one-row
    Boyer law, whose generating function is J0(A s)."""
    return FiniteLaw(FieldKind.BOYER, np.array([amplitude], dtype=float))


def _int_power(p: np.ndarray, m: int) -> np.ndarray:
    """p**m for an integer m >= 1 by repeated squaring, with * alone."""
    result = None
    while True:
        if m & 1:
            result = p if result is None else result * p
        m >>= 1
        if not m:
            return result
        p = p * p


def boyer_generating(s, s_direction, grid: ModeGrid):
    """Bessel-product generating function prod_k J0(A_k s) of the
    random-phase field component, A_k = sqrt(2) sigma_k |shat . eps_k|.
    No program path calls it: it remains for perfbench, which traces it."""
    return FiniteLaw.of("boyer", grid, s_direction)(s)


def BesselProductGF(grid: ModeGrid, s_direction=(0.0, 0.0, 1.0)):
    """boyer_generating as a callable of s; it remains for perfbench alone."""
    return lambda s: boyer_generating(s, s_direction, grid)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:   # 3^b 5^c times the fewest 2s that reach n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_z(a, s, x0: float, dx: float, m: int) -> np.ndarray:
    """sum_j a_j exp(i (x0 + k dx) s_j) for k = 0..m-1 on a uniform s grid.

    Bluestein's identity k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum
    into one convolution with the chirp w(t) = exp(i dx ds t^2 / 2), done
    by FFT. A cyclic convolution of length L >= n + m - 1 does not alias
    the m outputs, so L is the smallest 5-smooth length that large
    (_fft_length).
    """
    n = s.size
    ds = (s[-1] - s[0]) / (n - 1)
    t = np.arange(1 - n, m, dtype=float)
    w = np.exp(0.5j * (dx * ds) * (t * t))  # t^2 is exact in double up to 2^53
    size = _fft_length(n + m - 1)
    u = np.fft.fft(a * np.exp(1j * x0 * s) * w[n - 1::-1], size)
    conv = np.fft.ifft(u * np.fft.fft(w.conj(), size))[n - 1:n - 1 + m]
    k = np.arange(m, dtype=float)
    return np.exp(1j * k * dx * s[0]) * w[n - 1:] * conv


def _is_uniform(x: np.ndarray) -> bool:
    """True when each x_m of an x grid lies within 1e-12 of the span from
    x_0 + m dx, dx = (x_{M-1} - x_0) / (M - 1)."""
    span = x[-1] - x[0]
    ideal = x[0] + np.arange(x.size) * (span / (x.size - 1))
    return bool(np.max(np.abs(x - ideal)) <= 1e-12 * abs(span))


def invert_characteristic(gf, x_grid, s_max: float, n_s: int = 8193,
                          decay_tol: float = 1e-10) -> np.ndarray:
    """Recover a density from its generating function by discretized
    quadrature of the inverse transform over s in [-s_max, s_max], s_max
    finite and > 0, on a 1-D, finite, strictly increasing and evenly
    spaced x grid of at least 2 points (every ``np.linspace`` grid).

    The trapezoid sum over the n_s nodes is a chirp-z transform on the M
    points of the x grid, evaluated by FFT in O((M + n_s) log(M + n_s))
    with O(M + n_s) memory. An unevenly spaced x grid (one whose nodes lie
    further than 1e-12 of the span from the even ones) is rejected.

    The caller supplies the range; if |g| at the range edge exceeds
    ``decay_tol`` the transform is untrustworthy and an
    InsufficientRangeError is raised. The result is renormalized to unit
    mass on x_grid. A symmetric s-grid maps a symmetric gf to a symmetric
    density.
    """
    if not (isinstance(n_s, (int, np.integer)) and not isinstance(n_s, bool) and n_s >= 2):
        raise ValueError(f"n_s must be an integer >= 2, got {n_s!r}")
    if not (np.isfinite(s_max) and s_max > 0.0):
        raise ValueError(f"s_max must be finite and > 0, got {s_max!r}")
    if not (np.isfinite(decay_tol) and decay_tol >= 0.0):
        raise ValueError(f"decay_tol must be finite and >= 0, got {decay_tol!r}")
    x_grid = np.asarray(x_grid, dtype=float)
    if not (x_grid.ndim == 1 and x_grid.size >= 2 and np.all(np.isfinite(x_grid))
            and np.all(np.diff(x_grid) > 0.0) and _is_uniform(x_grid)):
        raise ValueError("x_grid must be 1-D, finite, strictly increasing, evenly spaced "
                         f"and at least 2 points long, got shape {x_grid.shape}")
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
    dx = (x_grid[-1] - x_grid[0]) / (x_grid.size - 1)
    pdf = _chirp_z(wg, s, x_grid[0], dx, x_grid.size).real / (2.0 * np.pi)
    mass = np.trapezoid(pdf, x_grid)
    if not mass > 0.0:
        raise InsufficientRangeError("inverted density has non-positive mass")
    return pdf / mass


# ------------------------------------------------------ the normal cdf

_CDF_BLOCK = 2**13   # elements per block of _ndtr, so its temporaries stay small

# Cody's rational approximations (Math. Comp. 23, 1969) in the Cephes ndtr.c
# form, highest power first; U, Q and S have a leading 1 that is not stored:
# erf(x) = x T(x^2)/U(x^2) for |x| < 1, erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8)
# and exp(-x^2) R(x)/S(x) on [8, inf)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_EXP_TAYLOR = tuple(1.0 / math.factorial(n) for n in range(13, -1, -1))
# ln 2 = _LN2_HI + _LN2_LO; _LN2_HI has 32 trailing zero bits, so k * _LN2_HI is
# exact for every k below 2^20
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_ERFC_ZERO = 28.0   # 0.5 erfc(z) underflows to 0 from about z = 27.2


def _polevl(x, coef, monic=False):
    """The polynomial with these coefficients (and a leading 1 if monic) at x,
    by Horner's rule in one new array."""
    out = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _half_erfc(z):
    """0.5 erfc(z) for 1 <= z <= _ERFC_ZERO, from +, -, *, /, rint and ldexp.

    z^2 = hi + lo exactly (Dekker's split of z into 26-bit halves), and
    exp(-hi - lo) = 2^-k exp(r) with k = rint(hi / ln 2), |r| <= ln 2 / 2 and
    exp(r) by its Taylor polynomial of degree 13 (truncation below 1e-17);
    2^-k scales the product once, at the end, by ldexp."""
    t = z * 134217729.0   # 2^27 + 1
    zh = t - (t - z)
    zl = z - zh
    hi = z * z
    lo = zh * zh - hi
    lo += 2.0 * zh * zl
    lo += zl * zl
    k = np.rint(hi * 1.44269504088896338700)   # 1/ln 2
    r = k * _LN2_HI - hi   # exact: the two lie within a factor 2
    r += k * _LN2_LO
    r -= lo
    ratio = _polevl(z, _ERFC_P) / _polevl(z, _ERFC_Q, monic=True)
    far = z >= 8.0
    if far.any():
        ratio[far] = _polevl(z[far], _ERFC_R) / _polevl(z[far], _ERFC_S, monic=True)
    y = _polevl(r, _EXP_TAYLOR)
    y *= ratio
    y *= 0.5
    return np.ldexp(y, -k.astype(np.int32), out=y)


def _half_erf_plus(x):
    """0.5 + 0.5 erf(x) for |x| < 1."""
    x2 = x * x
    y = _polevl(x2, _ERF_T) * x
    y /= _polevl(x2, _ERF_U, monic=True)
    y *= 0.5
    y += 0.5
    return y


def _ndtr_block(x, sigma, out):
    """out = Phi(x / sigma) for one block, as Cephes' ndtr forms it from
    u = x / (sigma sqrt 2): 0.5 + 0.5 erf(u) for |u| < 1, else 0.5 erfc(|u|),
    or 1 minus that for u > 0."""
    u = x / sigma
    u *= 0.70710678118654752440   # 1/sqrt(2)
    z = np.fmin(np.abs(u), _ERFC_ZERO)   # nan and inf as 28: the arithmetic stays finite
    inner = z < 1.0
    if inner.all():
        out[...] = _half_erf_plus(u)
        return
    outer = ~inner
    out[inner] = _half_erf_plus(u[inner])
    u = u[outer]
    y = _half_erfc(z[outer])
    np.subtract(1.0, y, out=y, where=u > 0.0)
    y[np.isnan(u)] = np.nan
    out[outer] = y


def _ndtr(x, sigma: float):
    """Normal cdf Phi(x / sigma), evaluated _CDF_BLOCK elements at a time.
    Its error against the exact cdf is below 1.2e-16 absolute everywhere,
    and it is 0 below about -38.5 sigma and 1 above about 8.3 sigma."""
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_x.size, _CDF_BLOCK):
        _ndtr_block(flat_x[lo:lo + _CDF_BLOCK], sigma, flat_out[lo:lo + _CDF_BLOCK])
    return out
