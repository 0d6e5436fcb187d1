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
through two functions here, given rho_k as (re, im): _mode_coefficients
(its per-mode rows) and sample_observable (the batch sampler).
dists.FiniteLaw turns the same rows into the observable's exact law;
tests/reference.py holds the slow reference the sampler is checked against.

Realization j is fully determined by (kind, grid, seed, j); per-mode
counter-based streams (rng.py) let batch samplers draw a single mode's
variables without generating the rest.
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
    mode; sample j is realization j's, so workers may split the index range
    via ``start`` without changing the output, and sample 0 reproduces the
    slow-path reference mode_amplitude of tests/reference.py.
    """
    phi = _mode_phase(grid, mode_index, r, t)
    return sample_observable(kind, grid, np.cos(phi), -np.sin(phi), n, seed, start,
                             {"mode_index": mode_index, **_point_meta(r, t)}, mode_index)


def sample_field_batch(kind, grid: ModeGrid, r, t: float, n: int, seed: int,
                       start: int = 0) -> SampleSet:
    """n i.i.d. realizations of the full field vector E(r, t).

    Realization 0 equals the slow-path reference
    eval_field(draw_realization(kind, grid, seed), grid, r, t) of
    tests/reference.py. The mode sum runs in blocks of modes x realizations
    (kernels.MODE_BLOCK mode-samples each), so memory stays O(n)
    regardless of grid size.
    """
    phi = _phases(grid, r, t)
    return sample_observable(kind, grid, np.cos(phi), -np.sin(phi), n, seed, start,
                             _point_meta(r, t))
