"""The package is what the CLI runs.

Twelve small CLI runs, under a profiler in a fresh interpreter, call every
function defined in src/zpfsim (every def, methods and nested functions
included) except those pinned in NEVER_CALLED, each with the reason it
stays. The test fails both ways: a function that no run calls and no pin
explains should be deleted, or pinned with its reason; a pinned function
that a run calls should be unpinned. Lambdas and comprehensions are not
counted, and neither is which statements of a called function run.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import zpfsim

PACKAGE = Path(zpfsim.__file__).parent

NEVER_CALLED = {
    "constants.PhysicalConstants.si": "SI constants for the acceptance suite",
    "dists.boyer_generating": "perfbench's gf-inversion traces it",
    "dists.BesselProductGF": "perfbench's gf-inversion inverts it",
    "dists.invert_characteristic": "the paper's inversion, which no report runs yet",
    "dists._chirp_z": "invert_characteristic's quadrature",
    "dists._fft_length": "invert_characteristic's FFT length",
    "dists._is_uniform": "invert_characteristic's check of its x grid",
    "rng.mode_stream": "perfbench's probes and tests/reference.py",
    "rng.mode_uniforms": "perfbench's probes and tests/reference.py",
    "stats._python_17g": "the CSV formatter's fallback, for values it cannot certify",
}

CUSTOM = {"kvectors": [[1, 0, 0], [0, 1, 1]], "volume": 1.0}
WEAK = {"electron_charge": 0.01}
RUNS = [
    ("sample-mode", {"kind": "boyer", "samples": 20000}),
    ("sample-mode", {"kind": "modified", "samples": 100}),
    ("total-field", {"kind": "modified", "samples": 10000}),
    ("total-field", {"kind": "boyer", "samples": 100, "r": [0.3, 0.1, -1.0], "t": 2.0}),
    ("total-field", {"samples": 100, "grid": CUSTOM}),
    ("oscillator", {"kind": "modified", "samples": 10000, "constants": WEAK,
                    "shells": {"n_shells": 8}}),
    ("oscillator", {"kind": "boyer", "samples": 100, "constants": WEAK,
                    "shells": {"n_shells": 8}}),
    ("oscillator", {"samples": 100,
                    "oscillator": {"nu0": 1.0, "gamma": 1e-4, "gamma_prime": 0.01, "mass": 1.0},
                    "shells": {"n_shells": 4, "directions": 5}}),
    ("oscillator", {"samples": 100, "constants": WEAK,
                    "shells": {"n_shells": 4, "directions": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}}),
    ("figure1", {}),
    ("generating", {}),
    ("generating", {"grid": {"kvectors": [[1, 0, 0], [0, 1, 1], [1, 1, 1]], "volume": 2.0},
                    "s_points": 21}),
]

# the profiler is set before zpfsim is imported, so calls made while the
# package and its CLI load count too; it follows the mode sum's threads
CHILD = """
import contextlib, io, json, os, sys, threading

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

threading.setprofile(profile)
sys.setprofile(profile)
import zpfsim
from zpfsim.cli import main

runs, out = json.loads(sys.argv[1]), sys.argv[2]
codes = []
for i, (command, cfg) in enumerate(runs):
    path = os.path.join(out, f"{i}.json")
    with open(path, "w") as fh:
        json.dump({"seed": 3, **cfg}, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main([command, "--config", path, "--out", os.path.join(out, str(i))]))
sys.setprofile(None)
threading.setprofile(None)
package = os.path.dirname(zpfsim.__file__)
print(json.dumps({"codes": codes, "called": sorted(
    [os.path.basename(c.co_filename), c.co_firstlineno, c.co_name]
    for c in called if os.path.dirname(c.co_filename) == package)}))
"""


def package_functions() -> dict:
    """module.qualname -> (file name, first line, name) of every def in the
    package, from the code objects its source compiles to."""
    out = {}

    def walk(code, prefix, file):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                if const.co_flags & 1:   # CO_OPTIMIZED: a function, not a class body
                    out[prefix + const.co_name] = (file, const.co_firstlineno, const.co_name)
                walk(const, prefix + const.co_name + ".", file)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".", path.name)
    return out


def test_cli_runs_reach_every_unpinned_function(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(RUNS), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(RUNS)
    called = set(map(tuple, result["called"]))
    functions = package_functions()
    never = {name for name, key in functions.items() if key not in called}
    assert sorted(never - set(NEVER_CALLED)) == [], "no CLI run calls these: delete or pin them"
    assert sorted(set(NEVER_CALLED) - never) == [], \
        "a CLI run calls these, or they are no package function: unpin them"
