"""Stochastic zero-point field realizations and mode sampling.

Two classical field ansatzes are implemented:

* Boyer (random phase): every mode has fixed amplitude sqrt(2)*sigma_k and
  an i.i.d. uniform phase theta_k in [0, 2*pi),

      E(r, t) = sqrt(2) * sum_k eps_k sigma_k cos(k.r - w t + theta_k).

* Modified (complex Gaussian): every mode carries w_k = u_k + i v_k with
  u_k, v_k i.i.d. standard normal,

      E(r, t) = Re sum_k eps_k sigma_k w_k exp(i k.r - i w t),

  equivalently an exponentially distributed intensity I_k = |w_k|^2 / 2
  with a uniform phase.

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


def _check_match(real: FieldRealization, grid: ModeGrid):
    if real.grid_fingerprint != grid.fingerprint or len(real) != len(grid):
        raise ValueError("realization does not match grid")


def draw_realization(kind, grid: ModeGrid, seed: int) -> FieldRealization:
    """Draw all per-mode variables; deterministic in (kind, grid, seed).

    Mode i consumes the leading block of its own stream, so the result is
    consistent with ensemble row 0 and with single-mode batch samplers.
    """
    kind = _as_kind(kind)
    seed = rng.check_seed(seed)
    streams = [rng.mode_stream(seed, i) for i in range(len(grid))]
    if kind is FieldKind.BOYER:
        theta = 2.0 * np.pi * np.array([g.random() for g in streams])
        return FieldRealization(kind, grid.fingerprint, seed, theta=theta)
    u = np.empty(len(grid))
    v = np.empty(len(grid))
    for i, g in enumerate(streams):
        u[i], v[i] = rng.boxmuller(*g.random(2))
    return FieldRealization(kind, grid.fingerprint, seed, w=u + 1j * v)


def _phases(grid: ModeGrid, r, t: float) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return grid.k @ r - grid.omega * t


def eval_field(real: FieldRealization, grid: ModeGrid, r, t: float) -> np.ndarray:
    """Exact finite-sum field vector E(r, t) of one realization."""
    _check_match(real, grid)
    phi = _phases(grid, r, t)
    if real.kind is FieldKind.BOYER:
        amps = SQRT2 * grid.sigma * np.cos(phi + real.theta)
    else:
        amps = grid.sigma * (real.w.real * np.cos(phi) - real.w.imag * np.sin(phi))
    return amps @ grid.eps


def mode_amplitude(real: FieldRealization, grid: ModeGrid, mode_index: int,
                   r, t: float) -> float:
    """Scalar coefficient E_k of eps_k in the mode expansion at (r, t)."""
    _check_match(real, grid)
    if not 0 <= mode_index < len(grid):
        raise IndexError(f"mode index {mode_index} out of range for {len(grid)} modes")
    phi = float(grid.k[mode_index] @ np.asarray(r, dtype=float)
                - grid.omega[mode_index] * t)
    sigma = float(grid.sigma[mode_index])
    if real.kind is FieldKind.BOYER:
        return float(SQRT2 * sigma * np.cos(phi + real.theta[mode_index]))
    w = real.w[mode_index]
    return float(sigma * (w.real * np.cos(phi) - w.imag * np.sin(phi)))


@dataclass(frozen=True)
class SampleSet:
    """A batch of Monte Carlo samples plus the metadata to regenerate it."""

    values: np.ndarray          # (n,) scalars or (n, 3) vectors
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.meta.get("count") != len(values):
            raise ValueError("meta count does not match number of values")

    def __len__(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path):
        names = ("x", "y", "z") if self.values.ndim == 2 else ("value",)
        return stats.write_csv(path, "sample set", names, self.values, self.meta)


def _mode_coefficients(kind: FieldKind, sigma, phi):
    # amplitude = a*X + b*Y with (X, Y) = (cos, sin) of the phase draw for
    # Boyer and the (u, v) normal pair for Modified; scalars or per-mode arrays
    if kind is FieldKind.BOYER:
        return SQRT2 * sigma * np.cos(phi), -SQRT2 * sigma * np.sin(phi)
    return sigma * np.cos(phi), -sigma * np.sin(phi)


def sample_mode_batch(kind, grid: ModeGrid, mode_index: int, r, t: float,
                      n: int, seed: int, start: int = 0) -> SampleSet:
    """n i.i.d. samples of the single-mode amplitude E_k at (r, t).

    Statistically identical to drawing full realizations and reading one
    mode; sample j reproduces the slow path for realization j, so workers
    may split the index range via ``start`` without changing the output.
    """
    kind = _as_kind(kind)
    seed = rng.check_seed(seed)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if not 0 <= mode_index < len(grid):
        raise IndexError(f"mode index {mode_index} out of range for {len(grid)} modes")
    phi = float(grid.k[mode_index] @ np.asarray(r, dtype=float)
                - grid.omega[mode_index] * t)
    a, b = _mode_coefficients(kind, float(grid.sigma[mode_index]), phi)
    block = rng.BLOCK_PHASE if kind is FieldKind.BOYER else rng.BLOCK_NORMAL_PAIR
    uni = rng.mode_uniforms(seed, mode_index, block * n, start=start * block)
    if kind is FieldKind.BOYER:
        values, y = kernels.phase_xy(uni)
    else:
        values, y = kernels.normal_xy(uni.reshape(n, 2))
    # in place: one fewer n-sample temporary than a * x + b * y
    values *= a
    y *= b
    values += y
    meta = {
        "kind": kind.value, "grid": grid.fingerprint, "mode_index": mode_index,
        "r": np.asarray(r, dtype=float).tolist(), "t": float(t),
        "seed": seed, "start": start, "count": n,
    }
    return SampleSet(values=values, meta=meta)


def sample_field_batch(kind, grid: ModeGrid, r, t: float, n: int, seed: int,
                       start: int = 0, chunk: int = 32768) -> SampleSet:
    """n i.i.d. realizations of the full field vector E(r, t).

    Row j equals eval_field(draw_realization(kind, grid, seed), ...) for
    realization index start + j. Work proceeds mode by mode so memory stays
    O(n) regardless of grid size.
    """
    kind = _as_kind(kind)
    seed = rng.check_seed(seed)
    if n < 1:
        raise ValueError("sample count must be >= 1")
    a, b = _mode_coefficients(kind, grid.sigma, _phases(grid, r, t))
    out = kernels.mode_sum(kind, a[:, None] * grid.eps, b[:, None] * grid.eps,
                           n, seed, start, chunk)
    meta = {
        "kind": kind.value, "grid": grid.fingerprint,
        "r": np.asarray(r, dtype=float).tolist(), "t": float(t),
        "seed": seed, "start": start, "count": n,
    }
    return SampleSet(values=out, meta=meta)
