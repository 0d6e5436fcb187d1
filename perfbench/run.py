"""zpfsim benchmark: one workload per run, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; zpfsim is imported from its ``src/``.
For ``--seconds`` the run repeats whole operations of the workload (one CLI
command, or one round of inversions) on inputs made from ``--seed``; with
``--trace 0`` each operation is followed by one set-up probe, a fresh
process that imports zpfsim and makes the inputs. Every operation's output
must equal the first one's, and the first one's output is checked in full
after timing ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``setup_s`` (median set-up probe: process start until
  zpfsim is imported and the inputs are ready), ``wall_s`` (mean time of
  one operation, output files included) and ``peak_rss_mb`` (peak resident
  memory of this process after the timed operations).
* ``--trace 1``: the per-layer metrics of ``layers.py``, from a separate
  run with public zpfsim functions wrapped. Its spans and its overhead
  against the last untraced run of the same workload in this checkout go to
  ``.perfbench_out/trace-<workload>-<seed>.json``.

Exits non-zero without a result when zpfsim cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["osc-ensemble", "mode-csv", "field-boyer", "gf-inversion"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args):
    """Child process: make the workload's inputs, print the monotonic clock."""
    import workloads

    rundir = OUT / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload](args.seed, rundir)
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 0


def time_setup(args):
    """Seconds from spawning a set-up probe until its inputs are ready."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1]) - t0


def measure(args, rundir):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, rundir)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()

    walls, setups, problems = [], [], []
    attempted = failed = 0
    first = None   # (outdir, result, fingerprint) of the first good operation
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < args.seconds:
        outdir = rundir / ("rep0" if first is None else "rep")
        outdir.mkdir(parents=True, exist_ok=True)
        attempted += 1
        if tracer:
            tracer.install()
            tracer.ops["workload"] += 1
        t0 = time.perf_counter()
        try:
            result = workload.op(outdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            print(f"operation {attempted} failed: {exc!r}", file=sys.stderr)
            continue
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        walls.append(wall)
        try:
            fp = workload.fingerprint(outdir, result)
            if first is None:
                first = (outdir, result, fp)
            elif fp != first[2]:
                raise workloads.CheckFailed("output differs from the first operation's")
        except workloads.CheckFailed as exc:
            problems.append(f"operation {attempted}: {exc}")
        if not args.trace:
            setups.append(time_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setups) < MIN_SETUP_PROBES:
        setups.append(time_setup(args))

    if first is not None:
        try:
            workload.check(first[0], first[1])
        except Exception as exc:  # any failure to verify makes the run incorrect
            problems.append(f"check: {exc!r}")
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)
    print("operation s: " + " ".join(f"{w:.4f}" for w in walls), file=sys.stderr)
    if setups:
        print("set-up s: " + " ".join(f"{t:.4f}" for t in setups), file=sys.stderr)

    if args.trace:
        metrics = trace_metrics(args, tracer, walls, rundir)
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        if walls:
            metrics["wall_s"] = (statistics.mean(walls), "s")
            (OUT / f"last-{args.workload}.json").write_text(
                json.dumps({"seed": args.seed, "wall_s": statistics.mean(walls)}))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def trace_metrics(args, tracer, walls, rundir):
    import layers
    import workloads

    tracer.install()
    try:
        probe_failures = layers.probe_tour(tracer, args.seed, rundir / "probe")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics.update(layers.import_times(workloads.SRC))
    traced = statistics.mean(walls) if walls else None
    untraced_file = OUT / f"last-{args.workload}.json"
    untraced = (json.loads(untraced_file.read_text())["wall_s"]
                if untraced_file.exists() else None)
    overhead = traced / untraced - 1.0 if traced and untraced else None
    if overhead is None:
        print("trace overhead: no untraced run of this workload in this checkout")
    else:
        print(f"trace overhead: traced wall {traced:.4f} s vs untraced {untraced:.4f} s "
              f"({100 * overhead:+.1f}%)")
    if tracer.missing:
        print(f"missing layers: {', '.join(tracer.missing)}")
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed,
        "traced_wall_s": walls, "untraced_wall_s": untraced, "overhead": overhead,
        "probe_failures": probe_failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args)
    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
