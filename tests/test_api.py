"""The public names of the zpfsim package: adding or removing one is a
deliberate API change, made here as well as in zpfsim/__init__.py."""

import os
import subprocess
import sys
import types
from pathlib import Path

import zpfsim

PUBLIC = [
    "Arcsine", "BesselProductGF", "ConvergenceError", "EmptyGridError", "FieldKind",
    "FieldRealization", "FiniteLaw", "GaussianGF", "GaussianMode", "InsufficientRangeError",
    "KSResult", "ModeGrid", "MomentReport", "OscillatorParams", "PhysicalConstants",
    "SampleSet", "bohr_radius_sq", "boyer_generating", "build_grid", "coordinate_ensemble",
    "coordinate_sample", "draw_realization", "empirical_generating", "eval_field",
    "grid_from_kvectors", "hermite_function", "histogram", "invert_characteristic",
    "ks_critical", "ks_test", "mode_amplitude", "mode_sigma", "moments",
    "polarization_basis", "predicted_variance", "quantum_oscillator_pdf",
    "resonance_integral", "resonance_shell_grid", "sample_field_batch", "sample_mode_batch",
    "total_field_sigma", "transfer",
]


def test_public_names_pinned():
    # submodules (zpfsim.cli, zpfsim.dists, ...) and dunder names aside
    names = sorted(name for name, value in vars(zpfsim).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_import_leaves_slow_modules_unloaded():
    """Importing the package and its CLI loads none of these: scipy.stats
    alone about doubles the start-up time of every run."""
    src = str(Path(zpfsim.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    slow = ("scipy.stats", "scipy.integrate", "concurrent.futures.thread")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, zpfsim, zpfsim.cli; "
         f"print([name for name in {slow!r} if name in sys.modules])"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
