"""Physical constants shared by every module.

The default system is dimensionless, hbar = eps0 = c = m_e = e = 1, which
keeps desk-scale simulation numbers O(1). SI values (or anything else) can
be supplied explicitly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    eps0: float = 1.0
    c: float = 1.0
    electron_mass: float = 1.0
    electron_charge: float = 1.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"constant {name!r} must be finite and strictly positive, got {value!r}")

    @classmethod
    def si(cls) -> "PhysicalConstants":
        return cls(
            hbar=1.054571817e-34,
            eps0=8.8541878128e-12,
            c=299792458.0,
            electron_mass=9.1093837015e-31,
            electron_charge=1.602176634e-19,
        )

    def to_dict(self) -> dict:
        return asdict(self)
