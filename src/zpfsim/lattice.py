"""Discrete k-space mode sets for a periodic cubic box.

Plane-wave modes are quantized as k = 2*pi*n/L, n in Z^3 \\ {0}, with a hard
frequency cutoff c|k| <= omega_cutoff (the cutoff is mandatory: the total
field variance diverges without one). Every retained wavevector carries two
transverse polarizations and a per-mode field scale

    sigma_k^2 = hbar * omega / (2 * eps0 * V).

Grids are immutable and ordered deterministically (lexicographic in n, then
polarization index), so the same inputs always produce bit-identical grids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import PhysicalConstants

ORTHO_TOL = 1e-12


class EmptyGridError(ValueError):
    """Raised when no lattice mode satisfies the frequency cutoff."""


def unit_vector(direction) -> np.ndarray:
    """direction / |direction| for three finite components, not all zero."""
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d) if d.shape == (3,) else 0.0
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(
            f"direction must be three finite numbers, not all zero, got {d.tolist()}")
    return d / norm


def mode_amplitudes(coef_a, coef_b, eps, direction) -> np.ndarray:
    """Per-mode amplitude |hypot(a_k, b_k) (eps_k . d)| of a_k X_k + b_k Y_k
    along the unit direction d: the J0 argument per unit s of a Boyer
    mode, and the standard deviation of a modified one."""
    return np.abs(np.hypot(coef_a, coef_b) * (eps @ unit_vector(direction)))


def mode_sigma(omega, volume, constants: PhysicalConstants):
    """Per-mode field scale sqrt(hbar*omega / (2*eps0*V))."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega must be strictly positive")
    if not volume > 0.0:
        raise ValueError("volume must be strictly positive")
    out = np.sqrt(constants.hbar * omega / (2.0 * constants.eps0 * volume))
    return float(out) if out.ndim == 0 else out


def polarization_basis(k):
    """Deterministic right-handed transverse basis (eps1, eps2) for wavevector k,
    one 3-vector or an (M, 3) array of them (then eps1 and eps2 are (M, 3)).

    Convention: for k not parallel to z, eps1 = normalize(z x khat) and
    eps2 = khat x eps1; for k parallel to z, eps1 = x and eps2 = sign(k_z)*y.
    The basis depends only on the direction of k.
    """
    k = np.asarray(k, dtype=float)
    # the stacked matmul rounds |k| as the 1-D np.linalg.norm does, unlike
    # norm(axis=-1) or einsum, so a row gives the bits of a single call
    norm = np.sqrt(k[..., None, :] @ k[..., :, None])[..., 0]
    if np.any(norm == 0.0):
        raise ValueError("polarization basis undefined for the zero wavevector")
    return _transverse_basis(k / norm)


def _transverse_basis(khat):
    """polarization_basis for unit vectors khat, shape (..., 3)."""
    x, y = khat[..., 0], khat[..., 1]
    # x * x is correctly rounded; pow(x, 2), which ** on a numpy scalar calls, is not
    transverse_sq = x * x + y * y
    par = transverse_sq <= ORTHO_TOL**2
    t = np.sqrt(np.where(par, 1.0, transverse_sq))
    zero = np.zeros_like(x)
    eps1 = np.stack([np.where(par, 1.0, -y / t), np.where(par, 0.0, x / t), zero], axis=-1)
    eps2 = np.where(par[..., None],
                    np.stack([zero, np.copysign(1.0, khat[..., 2]), zero], axis=-1),
                    np.cross(khat, eps1))
    return eps1, eps2


@dataclass(frozen=True)
class ModeGrid:
    """Ordered, immutable set of field modes.

    Modes are stored as flat arrays (row i describes mode i). ``grid_type``
    is "lattice" for the periodic-box builder, "custom" for explicit
    wavevector lists, and "shell" for the oscillator's resonance quadrature
    grids (whose sigma values carry mode-density weights and are not tied
    to a box volume).
    """

    k: np.ndarray                       # (M, 3)
    lam: np.ndarray                     # (M,) polarization index, 1 or 2
    eps: np.ndarray                     # (M, 3) unit polarization vectors
    omega: np.ndarray                   # (M,)
    sigma: np.ndarray                   # (M,)
    constants: PhysicalConstants
    grid_type: str = "lattice"
    box_side: float | None = None
    volume: float | None = None
    omega_cutoff: float | None = None

    def __post_init__(self):
        for name in ("k", "lam", "eps", "omega", "sigma"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.omega) == 0:
            raise EmptyGridError("empty grid: no modes")

    def __len__(self) -> int:
        return self.omega.shape[0]

    @cached_property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.grid_type.encode())
        h.update(repr(self.constants.to_dict()).encode())
        h.update(repr((self.box_side, self.volume, self.omega_cutoff)).encode())
        for arr in (self.k, self.lam, self.eps, self.omega, self.sigma):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]

    def component_variance(self, direction) -> float:
        """Total-field variance of one Cartesian/arbitrary component:
        sum_k A_k^2 over the modified-field amplitudes A_k = sigma_k |d . eps_k|
        (coefficients (sigma_k, 0)) for a unit direction d."""
        return float(np.sum(mode_amplitudes(self.sigma, 0.0, self.eps, direction) ** 2))


def build_grid(box_side: float, omega_cutoff: float,
               constants: PhysicalConstants = PhysicalConstants()) -> ModeGrid:
    """All periodic-box modes with c|k| <= omega_cutoff, two polarizations each.

    Mode order is lexicographic in the lattice triple n, then polarization.
    Raises EmptyGridError when the cutoff excludes every nonzero n.
    """
    if not box_side > 0.0:
        raise ValueError("box_side must be strictly positive")
    if not omega_cutoff > 0.0:
        raise ValueError("omega_cutoff must be strictly positive")
    dk = 2.0 * np.pi / box_side
    nmax = int(np.floor(omega_cutoff / (constants.c * dk) * (1.0 + 1e-12)))
    if nmax < 1:
        raise EmptyGridError(
            f"empty grid: smallest nonzero mode frequency {constants.c * dk:g} "
            f"exceeds cutoff {omega_cutoff:g}"
        )
    axis = np.arange(-nmax, nmax + 1, dtype=np.int64)
    n1, n2, n3 = np.meshgrid(axis, axis, axis, indexing="ij")
    n = np.stack([n1.ravel(), n2.ravel(), n3.ravel()], axis=1)
    norm_sq = np.einsum("ij,ij->i", n, n)
    keep = (norm_sq > 0) & (constants.c * dk * np.sqrt(norm_sq) <= omega_cutoff * (1.0 + 1e-12))
    n = n[keep]
    if n.shape[0] == 0:
        raise EmptyGridError(
            f"empty grid: no lattice mode with c|k| <= {omega_cutoff:g} "
            f"for box side {box_side:g}"
        )
    k = n * dk
    kn = np.linalg.norm(k, axis=1)
    khat = k / kn[:, None]
    omega = constants.c * kn
    volume = box_side**3
    sigma = mode_sigma(omega, volume, constants)
    # interleave (n, lambda=1), (n, lambda=2) keeping lexicographic n order
    return ModeGrid(
        k=np.repeat(k, 2, axis=0), lam=np.tile(np.array([1, 2], dtype=np.int64), n.shape[0]),
        eps=np.stack(_transverse_basis(khat), axis=1).reshape(-1, 3),
        omega=np.repeat(omega, 2), sigma=np.repeat(sigma, 2),
        constants=constants, grid_type="lattice",
        box_side=float(box_side), volume=float(volume),
        omega_cutoff=float(omega_cutoff),
    )


def grid_from_kvectors(k_vectors, volume: float,
                       constants: PhysicalConstants = PhysicalConstants(),
                       polarizations=(1, 2)) -> ModeGrid:
    """Build a grid from an explicit wavevector list.

    Intended for controlled experiments (single-mode grids, deliberately
    sparse grids). The polarization-pair structure of lattice grids is
    relaxed: any subset of (1, 2) may be requested per call.
    """
    kv = np.atleast_2d(np.asarray(k_vectors, dtype=float))
    if kv.shape[1] != 3:
        raise ValueError("k_vectors must be a list of 3-vectors")
    norm = np.linalg.norm(kv, axis=1)
    if not np.all(np.isfinite(norm) & (norm > 0.0)):
        raise ValueError("k_vectors must be finite and nonzero (no zero wavevector)")
    polarizations = tuple(polarizations)
    if not polarizations or any(p not in (1, 2) for p in polarizations):
        raise ValueError("polarizations must be a nonempty subset of (1, 2)")
    pol = np.array(polarizations, dtype=np.int64)
    # rows kv[0] x polarizations, kv[1] x polarizations, ...
    k = np.repeat(kv, pol.size, axis=0)
    eps = np.stack(polarization_basis(kv), axis=1)[:, pol - 1].reshape(-1, 3)
    omega = constants.c * np.linalg.norm(k, axis=1)
    sigma = mode_sigma(omega, volume, constants)
    return ModeGrid(
        k=k, lam=np.tile(pol, kv.shape[0]), eps=eps,
        omega=omega, sigma=np.asarray(sigma, dtype=float),
        constants=constants, grid_type="custom",
        volume=float(volume), omega_cutoff=float(np.max(omega)),
    )

