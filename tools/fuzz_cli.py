"""Check the CLI's exit contract over a grid of extreme config values.

Each subcommand starts from one or more small base configs that exit 0
(BASES; total-field has a lattice grid and a custom one, oscillator
damping from the constants and explicit damping on listed directions).
Every leaf field of a base, as cli.SPECS resolves it (a list stands for
its first entry), except the fields that take one of a few fixed values
(CHOICES), is set alone to each of 26 extreme values: 2184 configs in
all. Each runs as ``python -m zpfsim`` in a child process under a 3 GB
address-space limit (RLIMIT_AS) and a timeout, at most two at a time
(about 7 minutes on two cores). The script prints every contract
violation (``violations``):

- an exit code outside {0, 1, 2}
- a Traceback or a ``.py:`` source line on stderr
- an exit 1 whose message does not name the changed field: a list entry
  by its index (``density_factors[0]``), unless the parser checks the
  list as one value (WHOLE), which may be named whole
- a non-zero exit that leaves an output directory
- an exit 0 whose report.json holds a nan or an infinity

and then a count of exit codes, timeouts and violations. It exits 1 if any
config broke the contract or timed out, else 0. The children run
the zpfsim that this script imports, so from the root of a checkout:

    PYTHONPATH=src python tools/fuzz_cli.py

The Tier-1 suite imports this module and runs the same bases, walk and
rule in process, on a slice of the values (tests/test_cli.py).
"""

from __future__ import annotations

import collections
import copy
import json
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from zpfsim import cli

LIMIT_BYTES = 3 * 1024**3
TIMEOUT_S = 60.0
WORKERS = 2

# (command, base config); a command may have several bases: the custom
# grid's puts grid.kvectors, grid.volume and grid.polarizations in the grid,
# and the explicit-damping oscillator's puts oscillator.gamma, gamma_prime,
# mass and a list of shells.directions in it
BASES = [
    ("sample-mode", {"samples": 10}),
    ("total-field", {"samples": 10}),
    ("total-field", {"samples": 10,
                     "grid": {"kvectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], "volume": 1.0}}),
    ("oscillator", {"samples": 10, "constants": {"electron_charge": 0.01},
                    "shells": {"n_shells": 8}}),
    ("oscillator", {"samples": 10,
                    "oscillator": {"nu0": 1.0, "gamma": 1e-4, "gamma_prime": 0.01, "mass": 1.0},
                    "shells": {"n_shells": 8,
                               "directions": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}}),
    ("figure1", {}),
    ("generating", {"s_points": 11}),
]
CHOICES = {"command", "out", "kind", "rng_layout", "oscillator.from_constants"}
VALUES = [0, -0.0, 5e-324, 1e-308, 1e-300, 1e-200, 1e-154, 1e-9, 1e6, 1e7, 1e9, 1e150,
          1e154, 1e200, 1e300, 1e308, -1e308, -1.0, 2**53, 2**53 + 1, 2**63 - 1, 2**63,
          10**400, None, "x", True]
# the lists the parser checks as one value, so an error names them whole
WHOLE = {"r", "component", "direction", "shells.directions"}


def leaves(tree, path=()):
    """(path, value) of every leaf of a resolved config; a list's is
    ((..., key, 0), its first entry)."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        elif isinstance(value, list):
            yield path + (key, 0), value[0]
        else:
            yield path + (key,), value


def field_name(path) -> str:
    keys = [key for key in path if isinstance(key, str)]
    return ".".join(keys) + ("[0]" if path[-1] == 0 else "")


def with_value(base, resolved, path, value) -> dict:
    """base with the leaf at path set to value; a list is copied whole
    from the resolved config first."""
    cfg = copy.deepcopy(base)
    node, full = cfg, resolved
    for key in path[:-1]:
        if key not in node:
            node[key] = list(full[key]) if isinstance(full[key], list) else {}
        node, full = node[key], full[key]
    node[path[-1]] = value
    return cfg


def grid_values(path, leaf):
    """This script's values for a leaf: VALUES, unless it is one of CHOICES."""
    return () if field_name(path) in CHOICES else VALUES


def jobs(values=grid_values):
    """(command, path, value, config) for every base, every leaf path and
    every value of values(path, the leaf's resolved value)."""
    for command, base in BASES:
        base = {"seed": 1, **base}
        resolved = cli._resolve(cli.SPECS[command], base)
        for path, leaf in leaves(resolved):
            for value in values(path, leaf):
                yield command, path, value, with_value(base, resolved, path, value)


def run(work: Path, command, cfg):
    """(exit code, stderr) of cfg run by ``python -m zpfsim`` in a child
    process, in the new directory work; the exit code is None on a timeout."""
    work.mkdir()
    (work / "c.json").write_text(json.dumps(cfg))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zpfsim", command, "--config", str(work / "c.json"),
             "--out", str(work / "o")], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stderr


def _raise(constant):
    raise ValueError(f"non-finite {constant}")


def violations(rc, err: str, path, out: Path) -> list:
    """The contract clauses broken by a run that changed the leaf at path,
    exited rc, printed err on stderr and was given the output directory out."""
    found = []
    if rc not in (0, 1, 2):
        found.append(f"exit {rc}")
    if "Traceback" in err or any(".py:" in line for line in err.splitlines()):
        found.append("source line on stderr")
    whole = ".".join(key for key in path if isinstance(key, str))
    names = {field_name(path), *({whole} & WHOLE)}
    if rc == 1 and not any(f"'{name}'" in err for name in names):
        found.append("exit 1 names no changed field")
    if rc != 0 and out.exists():
        found.append("output directory left")
    if rc == 0:
        try:
            json.loads((out / "report.json").read_text(), parse_constant=_raise)
        except (OSError, ValueError) as exc:
            found.append(f"bad report.json: {exc}")
    return found


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))   # children inherit it
    codes, timeouts, bad = collections.Counter(), 0, 0
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        todo = list(jobs())
        works = [Path(tmp) / str(i) for i in range(len(todo))]
        results = pool.map(run, works, [job[0] for job in todo], [job[3] for job in todo])
        for (command, path, value, _), work, (rc, err) in zip(todo, works, results):
            where = f"{command} {field_name(path)}={json.dumps(value)}"
            if rc is None:
                timeouts += 1
                print(f"timeout after {TIMEOUT_S:g} s: {where}", flush=True)
                continue
            codes[rc] += 1
            if found := violations(rc, err, path, work / "o"):
                bad += 1
                last = (err.strip().splitlines() or [""])[-1]
                print(f"{'; '.join(found)}: {where} -> exit {rc}: {last[:300]}", flush=True)
    print(f"{len(todo)} configs, exits {dict(sorted(codes.items()))}, {timeouts} timeouts, "
          f"{bad} violations")
    return 1 if bad or timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
