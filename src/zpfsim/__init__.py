"""Monte Carlo laboratory for classical zero-point-field analogues.

Samples realizations of the random-phase (Boyer) and complex-Gaussian
(modified) classical zero-point fields on periodic-box mode lattices,
provides the analytic single-mode / total-field / oscillator target
distributions, and drives a radiation-damped classical oscillator with
either field to compare its coordinate statistics against the quantum
ground state.
"""

from .constants import PhysicalConstants
from .fields import (
    FieldKind,
    SampleSet,
    sample_field_batch,
    sample_mode_batch,
)
from .lattice import (
    EmptyGridError,
    ModeGrid,
    build_grid,
    grid_from_kvectors,
)
from .dists import (
    Arcsine,
    BesselProductGF,
    FiniteLaw,
    GaussianGF,
    GaussianMode,
    InsufficientRangeError,
    hermite_function,
    invert_characteristic,
    quantum_oscillator_pdf,
    total_field_sigma,
)
from .oscillator import (
    ConvergenceError,
    OscillatorParams,
    bohr_radius_sq,
    coordinate_ensemble,
    predicted_variance,
    resonance_integral,
    resonance_shell_grid,
    transfer,
)
from .stats import (
    KSResult,
    MomentReport,
    histogram,
    ks_critical,
    ks_test,
    moments,
)

__version__ = "0.1.0"
