"""Check the CLI's exit contract over a grid of extreme config values.

Each subcommand starts from one or more small base configs that exit 0
(BASES; total-field has a lattice grid and a custom one, oscillator
damping from the constants and explicit damping on listed directions).
Every leaf field of a base, as cli.SPECS resolves it (a list stands for
its first entry), except the fields that take one of a few fixed values
(CHOICES), is set alone to each of 26 extreme values: 2184 configs in
all. Each runs as ``python -m zpfsim`` in a child process under a 3 GB
address-space limit (RLIMIT_AS) and a timeout, at most two at a time
(about 6.5 minutes on two cores). The script prints every contract
violation:

- an exit code outside {0, 1, 2}
- a Traceback or a ``.py:`` source line on stderr
- an exit 1 whose message does not name the changed field
- a non-zero exit that leaves an output directory
- an exit 0 whose report.json holds a nan or an infinity

and then a count of exit codes, timeouts and violations. The children run
the zpfsim that this script imports, so from the root of a checkout:

    PYTHONPATH=src python tools/fuzz_cli.py
"""

from __future__ import annotations

import collections
import copy
import json
import resource
import subprocess
import sys
import tempfile
import time
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


def leaves(tree, path=()):
    """The path of every leaf of a resolved config; a list's is (key, 0)."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + ((key, 0) if isinstance(value, list) else (key,))


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


def jobs():
    for command, base in BASES:
        base = {"seed": 1, **base}
        resolved = cli._resolve(cli.SPECS[command], base)
        for path in (p for p in leaves(resolved) if field_name(p) not in CHOICES):
            for value in VALUES:
                yield command, path, value, with_value(base, resolved, path, value)


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def start(work: Path, command, cfg):
    work.mkdir()
    (work / "c.json").write_text(json.dumps(cfg))
    with open(work / "stdout", "w") as out, open(work / "stderr", "w") as err:
        return subprocess.Popen(
            [sys.executable, "-m", "zpfsim", command, "--config", str(work / "c.json"),
             "--out", str(work / "o")],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, preexec_fn=limit_memory)


def _raise(constant):
    raise ValueError(f"non-finite {constant}")


def violations(work: Path, path, rc) -> list:
    err = (work / "stderr").read_text()
    found = []
    if rc not in (0, 1, 2):
        found.append(f"exit {rc}")
    if "Traceback" in err or any(".py:" in line for line in err.splitlines()):
        found.append("source line on stderr")
    name = field_name(path)
    names = {f"'{name}'", f"'{name.removesuffix('[0]')}'"}
    if rc == 1 and not any(n in err for n in names):
        found.append("exit 1 names no changed field")
    if rc != 0 and (work / "o").exists():
        found.append("output directory left")
    if rc == 0:
        try:
            json.loads((work / "o" / "report.json").read_text(), parse_constant=_raise)
        except (OSError, ValueError) as exc:
            found.append(f"bad report.json: {exc}")
    return found


def main() -> int:
    codes, bad, timeouts, total = collections.Counter(), 0, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        pending, running = iter(enumerate(jobs())), []
        while True:
            while len(running) < WORKERS:
                item = next(pending, None)
                if item is None:
                    break
                i, (command, path, value, cfg) = item
                work = Path(tmp) / str(i)
                running.append((start(work, command, cfg), time.monotonic(), work,
                                command, path, value))
            if not running:
                break
            time.sleep(0.01)
            for job in list(running):
                proc, began, work, command, path, value = job
                if proc.poll() is None and time.monotonic() - began < TIMEOUT_S:
                    continue
                running.remove(job)
                total += 1
                where = f"{command} {field_name(path)}={json.dumps(value)}"
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                    timeouts += 1
                    print(f"timeout after {TIMEOUT_S:g} s: {where}", flush=True)
                    continue
                codes[proc.returncode] += 1
                found = violations(work, path, proc.returncode)
                if found:
                    bad += 1
                    last = ((work / "stderr").read_text().strip().splitlines() or [""])[-1]
                    print(f"{'; '.join(found)}: {where} -> exit {proc.returncode}: "
                          f"{last[:300]}", flush=True)
    print(f"{total} configs, exits {dict(sorted(codes.items()))}, {timeouts} timeouts, "
          f"{bad} violations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
