"""The slow-path reference the tests check zpfsim's fast path against.

A realization is drawn whole, one mode's stream at a time
(draw_realization), and an observable is evaluated from it term by term
(observe): sigma_k Re{w_k conj(re_k + i im_k)}, with w_k = sqrt(2)
exp(i theta_k) for Boyer. None of it goes through fields._mode_coefficients
or kernels.mode_sum, so it shares no contraction code with
fields.sample_observable. The empirical generating function and the
lattice energy densities beside it are oracles no program path uses.

pytest puts this directory on sys.path (there is no tests/__init__.py),
so a test imports these names with ``from reference import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zpfsim import rng
from zpfsim.constants import PhysicalConstants
from zpfsim.fields import SQRT2, FieldKind, _as_kind, _mode_phase, _phases
from zpfsim.lattice import ModeGrid
from zpfsim.oscillator import OscillatorParams, _response
from zpfsim.stats import _finite_samples


@dataclass(frozen=True)
class FieldRealization:
    """One draw of all per-mode stochastic variables of a field."""

    kind: FieldKind
    grid_fingerprint: str
    seed: int
    theta: np.ndarray | None = None   # Boyer phases in [0, 2*pi)
    w: np.ndarray | None = None       # Modified complex amplitudes u + i v

    def __post_init__(self):
        if self.kind is FieldKind.BOYER:
            if self.theta is None or self.w is not None:
                raise ValueError("Boyer realization carries phases only")
            if np.any(self.theta < 0.0) or np.any(self.theta >= 2.0 * np.pi):
                raise ValueError("Boyer phases must lie in [0, 2*pi)")
        else:
            if self.w is None or self.theta is not None:
                raise ValueError("Modified realization carries complex amplitudes only")
        arr = self.theta if self.theta is not None else self.w
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "theta" if self.kind is FieldKind.BOYER else "w", arr)

    def __len__(self) -> int:
        arr = self.theta if self.theta is not None else self.w
        return arr.shape[0]


def draw_realization(kind, grid: ModeGrid, seed: int) -> FieldRealization:
    """Draw all per-mode variables; deterministic in (kind, grid, seed).

    Mode i consumes the leading block of its own stream, so the result is
    consistent with ensemble row 0 and with single-mode batch samplers.
    """
    kind = _as_kind(kind)
    seed = rng.check_seed(seed)
    width = rng.BLOCK_PHASE if kind is FieldKind.BOYER else rng.BLOCK_NORMAL_PAIR
    uni = np.empty((len(grid), width))
    gen = rng.generator()
    for key, row in zip(rng.mode_keys(seed, np.arange(len(grid))), uni):
        rng.position(gen, key, 0).random(out=row)
    if kind is FieldKind.BOYER:
        return FieldRealization(kind, grid.fingerprint, seed, theta=2.0 * np.pi * uni[:, 0])
    u, v = rng.boxmuller(uni[:, 0], uni[:, 1])
    return FieldRealization(kind, grid.fingerprint, seed, w=u + 1j * v)


def observe(real: FieldRealization, grid: ModeGrid, re, im) -> np.ndarray:
    """The slow-path reference: per-mode terms sigma_k Re{w_k conj(re_k +
    i im_k)} of one realization, w_k = sqrt(2) exp(i theta_k) for Boyer.
    It shares no code with the fast path (sample_observable) it checks."""
    if real.grid_fingerprint != grid.fingerprint or len(real) != len(grid):
        raise ValueError("realization does not match grid")
    w = SQRT2 * np.exp(1j * real.theta) if real.kind is FieldKind.BOYER else real.w
    return grid.sigma * (w * (re - 1j * im)).real


def eval_field(real: FieldRealization, grid: ModeGrid, r, t: float) -> np.ndarray:
    """Exact finite-sum field vector E(r, t) of one realization."""
    phi = _phases(grid, r, t)
    return observe(real, grid, np.cos(phi), -np.sin(phi)) @ grid.eps


def mode_amplitude(real: FieldRealization, grid: ModeGrid, mode_index: int,
                   r, t: float) -> float:
    """Scalar coefficient E_k of eps_k in the mode expansion at (r, t)."""
    phi = _mode_phase(grid, mode_index, r, t)
    return float(observe(real, grid, np.cos(phi), -np.sin(phi))[mode_index])


def coordinate_sample(real: FieldRealization, grid: ModeGrid, p: OscillatorParams,
                      t: float) -> np.ndarray:
    """Oscillator coordinate vector for one field realization: the slow-path
    reference sum_k sigma_k Re{w_k conj(h~(w_k))} eps_k, with w_k =
    sqrt(2) exp(i theta_k) for Boyer realizations."""
    ht = _response(grid, p, t)
    return observe(real, grid, ht.real, ht.imag) @ grid.eps


def empirical_generating(samples, s_values):
    """Empirical characteristic function mean(exp(-i s X)) on a set of s
    values. Returns (complex means, standard errors of the real part)."""
    x = _finite_samples(samples, 2, "an empirical generating function")
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    n = x.size
    g = np.empty(s.size, dtype=complex)
    se = np.empty(s.size)
    for idx, sv in enumerate(s):
        c = np.cos(sv * x)
        g[idx] = np.mean(c) - 1j * np.mean(np.sin(sv * x))
        se[idx] = np.std(c, ddof=1) / np.sqrt(n)
    return g, se


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
