"""Stochastic zero-point field realizations and the one observable path.

Two classical field ansatzes are implemented:

* Boyer (random phase): every mode has fixed amplitude sqrt(2)*sigma_k and
  an i.i.d. uniform phase theta_k in [0, 2*pi),

      E(r, t) = sqrt(2) * sum_k eps_k sigma_k cos(k.r - w t + theta_k).

* Modified (complex Gaussian): every mode carries w_k = u_k + i v_k with
  u_k, v_k i.i.d. standard normal,

      E(r, t) = Re sum_k eps_k sigma_k w_k exp(i k.r - i w t),

  equivalently an exponentially distributed intensity I_k = |w_k|^2 / 2
  with a uniform phase.

The field and the field-driven oscillator are the same linear observable
sum_k sigma_k Re{w_k conj(rho_k)} eps_k (w_k = sqrt(2) exp(i theta_k) for
Boyer); only the per-mode response rho_k differs. Every observable goes
through three functions here, given rho_k as (re, im): _mode_coefficients
(its per-mode rows), sample_observable (the fast batch sampler) and observe
(the slow-path reference). dists.FiniteLaw turns the same rows into the
observable's exact law.

A realization is immutable and fully determined by (kind, grid, seed);
per-mode counter-based streams (rng.py) let batch samplers draw a single
mode's variables without generating the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernels, rng, stats
from .lattice import ModeGrid

SQRT2 = np.sqrt(2.0)


class FieldKind(str, Enum):
    BOYER = "boyer"
    MODIFIED = "modified"


def _as_kind(kind) -> FieldKind:
    return FieldKind(kind.lower() if isinstance(kind, str) else kind)


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


def _finite_phase(phase, what: str = "k.r - w t of fields 'r' and 't'"):
    """phase() under np.errstate, or a ValueError naming what, before sampling."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = phase()
    if not np.all(np.isfinite(value)):
        raise ValueError(f"the phase {what} is not finite for every mode")
    return value


def _phases(grid: ModeGrid, r, t: float) -> np.ndarray:
    return _finite_phase(lambda: grid.k @ np.asarray(r, dtype=float) - grid.omega * t)


def _point_meta(r, t: float) -> dict:
    return {"r": np.asarray(r, dtype=float).tolist(), "t": float(t)}


def _mode_phase(grid: ModeGrid, mode_index: int, r, t: float) -> float:
    """Phase k_i.r - w_i t of one mode. A scalar dot product: indexing
    _phases instead moves the last bit of some modes."""
    if not 0 <= mode_index < len(grid):
        raise IndexError(f"mode index {mode_index} out of range for {len(grid)} modes")
    return float(_finite_phase(lambda: grid.k[mode_index] @ np.asarray(r, dtype=float)
                               - grid.omega[mode_index] * t))


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


@dataclass(frozen=True)
class SampleSet:
    """A batch of Monte Carlo samples plus the metadata to regenerate it."""

    values: np.ndarray          # (n,) scalars or (n, 3) vectors
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values)   # kernels.mode_sum's rows are column-major
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.meta.get("count") != len(values):
            raise ValueError("meta count does not match number of values")

    def __len__(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path):
        names = ("x", "y", "z") if self.values.ndim == 2 else ("value",)
        return stats.write_csv(path, "sample set", names, self.values, self.meta)


def _mode_coefficients(kind: FieldKind, sigma, re, im):
    """The one rule for the rows (a_k, b_k) of an observable
    sigma_k Re{w_k conj(re + i*im)} = a_k X_k + b_k Y_k. (X, Y) is the
    (u, v) normal pair of w_k for Modified, and (cos, sin) of the phase
    draw for Boyer, whose w_k = sqrt(2) exp(i theta_k) puts sqrt(2) into
    the scale. Scalars or per-mode arrays."""
    scale = SQRT2 * sigma if kind is FieldKind.BOYER else sigma
    return scale * re, scale * im


def sample_observable(kind, grid: ModeGrid, re, im, n: int, seed: int, start: int,
                      meta: dict, mode_index: int | None = None) -> SampleSet:
    """The one fast path: realizations start..start+n-1 of the observable
    sum_k sigma_k Re{w_k conj(re_k + i im_k)} eps_k, whose per-mode response
    re + i*im is exp(-i phi_k) for the field at (r, t) and exp(i w t) h(w)
    for the oscillator. With ``mode_index`` the response is that mode's
    and the result its scalar term alone, read from its own stream. The
    SampleSet meta holds kind, grid, seed, start and count besides ``meta``."""
    kind = _as_kind(kind)
    seed = rng.check_seed(seed)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if mode_index is None:
        sigma, eps, streams = grid.sigma, grid.eps, np.arange(len(grid))
    else:
        sigma, eps, streams = grid.sigma[[mode_index]], np.ones((1, 1)), [mode_index]
    a, b = _mode_coefficients(kind, sigma, re, im)
    values = kernels.mode_sum(kind, a[:, None] * eps, b[:, None] * eps, streams, n, seed, start)
    return SampleSet(values=values if mode_index is None else values[:, 0], meta={
        "kind": kind.value, "grid": grid.fingerprint, **meta,
        "seed": seed, "start": start, "count": n})


def sample_mode_batch(kind, grid: ModeGrid, mode_index: int, r, t: float,
                      n: int, seed: int, start: int = 0) -> SampleSet:
    """n i.i.d. samples of the single-mode amplitude E_k at (r, t).

    Statistically identical to drawing full realizations and reading one
    mode; sample j reproduces the slow path for realization j, so workers
    may split the index range via ``start`` without changing the output.
    """
    phi = _mode_phase(grid, mode_index, r, t)
    return sample_observable(kind, grid, np.cos(phi), -np.sin(phi), n, seed, start,
                             {"mode_index": mode_index, **_point_meta(r, t)}, mode_index)


def sample_field_batch(kind, grid: ModeGrid, r, t: float, n: int, seed: int,
                       start: int = 0) -> SampleSet:
    """n i.i.d. realizations of the full field vector E(r, t).

    Row j equals eval_field(draw_realization(kind, grid, seed), ...) for
    realization index start + j. The mode sum runs in blocks of modes x
    realizations (kernels.MODE_BLOCK mode-samples each), so memory stays
    O(n) regardless of grid size.
    """
    phi = _phases(grid, r, t)
    return sample_observable(kind, grid, np.cos(phi), -np.sin(phi), n, seed, start,
                             _point_meta(r, t))
