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
import json
from dataclasses import dataclass, field
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
    """Deterministic right-handed transverse basis (eps1, eps2) for wavevector k.

    Convention: for k not parallel to z, eps1 = normalize(z x khat) and
    eps2 = khat x eps1; for k parallel to z, eps1 = x and eps2 = sign(k_z)*y.
    The basis depends only on the direction of k.
    """
    k = np.asarray(k, dtype=float)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ValueError("polarization basis undefined for the zero wavevector")
    khat = k / norm
    transverse_sq = khat[0] ** 2 + khat[1] ** 2
    if transverse_sq <= ORTHO_TOL**2:
        eps1 = np.array([1.0, 0.0, 0.0])
        eps2 = np.array([0.0, np.copysign(1.0, khat[2]), 0.0])
    else:
        t = np.sqrt(transverse_sq)
        eps1 = np.array([-khat[1] / t, khat[0] / t, 0.0])
        eps2 = np.cross(khat, eps1)
    return eps1, eps2


def _polarization_pairs(khat):
    """Vectorized form of polarization_basis for an (M, 3) array of unit vectors."""
    m = khat.shape[0]
    eps1 = np.empty((m, 3))
    eps2 = np.empty((m, 3))
    tsq = khat[:, 0] ** 2 + khat[:, 1] ** 2
    par = tsq <= ORTHO_TOL**2
    gen = ~par
    t = np.sqrt(tsq[gen])
    eps1[gen, 0] = -khat[gen, 1] / t
    eps1[gen, 1] = khat[gen, 0] / t
    eps1[gen, 2] = 0.0
    eps2[gen] = np.cross(khat[gen], eps1[gen])
    eps1[par] = (1.0, 0.0, 0.0)
    eps2[par, 0] = 0.0
    eps2[par, 1] = np.copysign(1.0, khat[par, 2])
    eps2[par, 2] = 0.0
    return eps1, eps2


@dataclass(frozen=True)
class Mode:
    k: np.ndarray
    lam: int
    eps: np.ndarray
    omega: float
    sigma: float


@dataclass(frozen=True)
class ModeGrid:
    """Ordered, immutable set of field modes.

    Modes are stored as flat arrays (row i describes mode i); ``modes``
    materializes Mode records on demand. ``grid_type`` is "lattice" for the
    periodic-box builder, "custom" for explicit wavevector lists, and
    "shell" for the oscillator's resonance quadrature grids (whose sigma
    values carry mode-density weights and are not tied to a box volume).
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
    n_int: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("k", "lam", "eps", "omega", "sigma", "n_int"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.omega) == 0:
            raise EmptyGridError("empty grid: no modes")

    def __len__(self) -> int:
        return self.omega.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self)

    @cached_property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.grid_type.encode())
        h.update(repr(self.constants.to_dict()).encode())
        h.update(repr((self.box_side, self.volume, self.omega_cutoff)).encode())
        for arr in (self.k, self.lam, self.eps, self.omega, self.sigma):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]

    def mode(self, i: int) -> Mode:
        return Mode(
            k=self.k[i], lam=int(self.lam[i]), eps=self.eps[i],
            omega=float(self.omega[i]), sigma=float(self.sigma[i]),
        )

    @property
    def modes(self) -> tuple:
        return tuple(self.mode(i) for i in range(len(self)))

    def component_variance(self, direction) -> float:
        """Total-field variance of one Cartesian/arbitrary component:
        sum_k (d . eps_k)^2 sigma_k^2 for a unit direction d."""
        proj = self.eps @ unit_vector(direction)
        return float(np.sum((proj * self.sigma) ** 2))

    def to_json(self) -> str:
        payload = {
            "grid_type": self.grid_type,
            "box_side": self.box_side,
            "volume": self.volume,
            "omega_cutoff": self.omega_cutoff,
            "constants": self.constants.to_dict(),
            "modes": [
                {
                    "n": None if self.n_int is None else [int(v) for v in self.n_int[i]],
                    "k": [float(v) for v in self.k[i]],
                    "lambda": int(self.lam[i]),
                    "eps": [float(v) for v in self.eps[i]],
                    "omega": float(self.omega[i]),
                    "sigma": float(self.sigma[i]),
                }
                for i in range(len(self))
            ],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ModeGrid":
        data = json.loads(text)
        modes = data["modes"]
        n_int = None
        if modes and modes[0].get("n") is not None:
            n_int = np.array([m["n"] for m in modes], dtype=np.int64)
        return cls(
            k=np.array([m["k"] for m in modes], dtype=float),
            lam=np.array([m["lambda"] for m in modes], dtype=np.int64),
            eps=np.array([m["eps"] for m in modes], dtype=float),
            omega=np.array([m["omega"] for m in modes], dtype=float),
            sigma=np.array([m["sigma"] for m in modes], dtype=float),
            constants=PhysicalConstants.from_dict(data["constants"]),
            grid_type=data.get("grid_type", "lattice"),
            box_side=data.get("box_side"),
            volume=data.get("volume"),
            omega_cutoff=data.get("omega_cutoff"),
            n_int=n_int,
        )


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
    eps1, eps2 = _polarization_pairs(khat)
    omega = constants.c * kn
    volume = box_side**3
    sigma = mode_sigma(omega, volume, constants)

    nk = n.shape[0]
    # interleave (n, lambda=1), (n, lambda=2) keeping lexicographic n order
    k2 = np.repeat(k, 2, axis=0)
    n2rows = np.repeat(n, 2, axis=0)
    omega2 = np.repeat(omega, 2)
    sigma2 = np.repeat(sigma, 2)
    lam = np.tile(np.array([1, 2], dtype=np.int64), nk)
    eps = np.empty((2 * nk, 3))
    eps[0::2] = eps1
    eps[1::2] = eps2
    return ModeGrid(
        k=k2, lam=lam, eps=eps, omega=omega2, sigma=sigma2,
        constants=constants, grid_type="lattice",
        box_side=float(box_side), volume=float(volume),
        omega_cutoff=float(omega_cutoff), n_int=n2rows,
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
    if np.any(np.linalg.norm(kv, axis=1) == 0.0):
        raise ValueError("zero wavevector not allowed")
    polarizations = tuple(polarizations)
    if not polarizations or any(p not in (1, 2) for p in polarizations):
        raise ValueError("polarizations must be a nonempty subset of (1, 2)")
    rows_k, rows_eps, rows_lam = [], [], []
    for kvec in kv:
        e1, e2 = polarization_basis(kvec)
        for p in polarizations:
            rows_k.append(kvec)
            rows_lam.append(p)
            rows_eps.append(e1 if p == 1 else e2)
    k = np.array(rows_k)
    omega = constants.c * np.linalg.norm(k, axis=1)
    sigma = mode_sigma(omega, volume, constants)
    return ModeGrid(
        k=k, lam=np.array(rows_lam, dtype=np.int64), eps=np.array(rows_eps),
        omega=omega, sigma=np.asarray(sigma, dtype=float),
        constants=constants, grid_type="custom",
        volume=float(volume), omega_cutoff=float(np.max(omega)),
    )


def angular_polarization_integral(s) -> float:
    """Closed form of the orientation integral of sum_lam (s.eps)^2: 8*pi*|s|^2/3."""
    s = np.asarray(s, dtype=float)
    return float(8.0 * np.pi * np.dot(s, s) / 3.0)


def angular_polarization_mc(s, n_directions: int, seed: int):
    """Monte Carlo companion of angular_polarization_integral.

    Averages sum_lam (s . eps_{k,lam})^2 over uniformly random directions
    khat and multiplies by the full solid angle 4*pi. Returns (estimate,
    standard_error).
    """
    s = np.asarray(s, dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    v = rng.standard_normal((n_directions, 3))
    khat = v / np.linalg.norm(v, axis=1)[:, None]
    eps1, eps2 = _polarization_pairs(khat)
    vals = (eps1 @ s) ** 2 + (eps2 @ s) ** 2
    mean = 4.0 * np.pi * np.mean(vals)
    se = 4.0 * np.pi * np.std(vals, ddof=1) / np.sqrt(n_directions)
    return float(mean), float(se)


def continuum_sum_check(grid: ModeGrid, f):
    """Discrete mode sum of f(omega) next to its continuum-limit integral.

    Returns (sum over modes of f(omega_k),
             V/(pi^2 c^3) * integral_0^cutoff omega^2 f(omega) domega).
    The pair quantifies how well the lattice approximates free space.
    """
    from scipy import integrate  # imported here: it costs ~0.3 s and nothing else needs it

    if grid.volume is None or grid.omega_cutoff is None:
        raise ValueError("continuum comparison needs a grid with volume and cutoff")
    try:
        fvals = np.asarray(f(grid.omega), dtype=float)
        if fvals.shape != grid.omega.shape:
            raise TypeError
    except TypeError:
        fvals = np.array([f(w) for w in grid.omega], dtype=float)
    discrete = float(np.sum(fvals))
    c = grid.constants.c
    pref = grid.volume / (np.pi**2 * c**3)
    integral, _ = integrate.quad(lambda w: w * w * f(w), 0.0, grid.omega_cutoff, limit=200)
    return discrete, float(pref * integral)
