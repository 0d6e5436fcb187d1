"""The public names of the zpfsim package: adding or removing one is a
deliberate API change, made here as well as in zpfsim/__init__.py."""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import zpfsim
from zpfsim import cli

PUBLIC = [
    "Arcsine", "BesselProductGF", "ConvergenceError", "EmptyGridError", "FieldKind",
    "FiniteLaw", "GaussianGF", "GaussianMode", "InsufficientRangeError", "KSResult",
    "ModeGrid", "MomentReport", "OscillatorParams", "PhysicalConstants", "SampleSet",
    "bohr_radius_sq", "build_grid", "coordinate_ensemble", "grid_from_kvectors",
    "hermite_function", "histogram", "invert_characteristic", "ks_critical", "ks_test",
    "moments", "predicted_variance", "quantum_oscillator_pdf", "resonance_integral",
    "resonance_shell_grid", "sample_field_batch", "sample_mode_batch", "total_field_sigma",
    "transfer",
]


def test_public_names_pinned():
    # submodules (zpfsim.cli, zpfsim.dists, ...) and dunder names aside
    names = sorted(name for name, value in vars(zpfsim).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_import_leaves_slow_modules_unloaded(child_env):
    """Importing the package and its CLI loads none of these: scipy.stats
    alone about doubles the start-up time of every run, and scipy.special
    is about half of it."""
    slow = ("scipy", "scipy.stats", "scipy.integrate", "concurrent.futures.thread")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, zpfsim, zpfsim.cli; "
         f"print([name for name in {slow!r} if name in sys.modules])"],
        capture_output=True, text=True, env=child_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_sampling_commands_leave_scipy_unloaded(fuzz_cli, child_env, tmp_path):
    """sample-mode, total-field, oscillator and figure1 run each base config
    of tools/fuzz_cli.py to the end without loading scipy; generating loads
    it, for the Bessel product's j0."""
    code = ["import contextlib, io, json, sys", "from zpfsim.cli import main"]
    for i, (command, cfg) in enumerate(fuzz_cli.BASES):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"seed": 5, **cfg}))
        code += ["with contextlib.redirect_stdout(io.StringIO()):",
                 f"    code = main([{command!r}, '--config', {str(path)!r}, "
                 f"'--out', {str(tmp_path / str(i))!r}])",
                 "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:1])"]
    out = subprocess.run([sys.executable, "-c", "\n".join(code)],
                         capture_output=True, text=True, env=child_env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"0 {['scipy'] if command == 'generating' else []}"
                                       for command, _ in fuzz_cli.BASES]


def test_readme_config_table_matches_specs():
    """The README's "Config fields" table lists, per subcommand, exactly the
    top-level fields of cli.SPECS besides command, seed and out."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Config fields\n", 1)[1].split("\n## ", 1)[0]
    documented = {command: set() for command in cli.SPECS}
    for line in section.splitlines():
        if line.startswith("| `"):
            fields, readers = line.split("|")[1:3]
            names = re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", fields))   # no (`--flag`)
            for command in readers.split(","):
                documented[command.strip()].update(names)
    assert documented == {command: set(spec) - {"command", "seed", "out"}
                          for command, spec in cli.SPECS.items()}
