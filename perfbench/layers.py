"""Per-layer tracing from outside the program.

Public zpfsim functions are wrapped in the benchmark process: every module
attribute bound to a target function is replaced by a wrapper that records
a span (name, start, end, parent) and a work count. Spans stay in memory and
are written to a JSON file when the run ends. A target that no longer
exists is reported as missing, not as an error.

Layers the workload itself does not reach are measured by a short probe
tour of direct calls on small inputs made from the same seed, so that every
traced run reports every per-layer metric.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np


# name -> (module, attribute path, work count from the bound arguments and
# the result, or None for time only)
TARGETS = {
    "cli.main": ("zpfsim.cli", "main", None),
    "rng.mode_stream": ("zpfsim.rng", "mode_stream", lambda a, r: 1),
    "rng.skip_uniforms": ("zpfsim.rng", "skip_uniforms", None),
    "rng.mode_uniforms": ("zpfsim.rng", "mode_uniforms", lambda a, r: a["count"]),
    "rng.boxmuller": ("zpfsim.rng", "boxmuller", lambda a, r: np.size(a["u1"])),
    "kernels.accumulate_normal": ("zpfsim.kernels", "accumulate_normal",
                                  lambda a, r: len(a["uniforms"])),
    "kernels.accumulate_phase": ("zpfsim.kernels", "accumulate_phase",
                                 lambda a, r: len(a["uniforms"])),
    "oscillator.coordinate_ensemble": ("zpfsim.oscillator", "coordinate_ensemble",
                                       lambda a, r: a["n"] * len(a["grid"])),
    "oscillator.resonance_shell_grid": ("zpfsim.oscillator", "resonance_shell_grid", None),
    "oscillator.resonance_integral": ("zpfsim.oscillator", "resonance_integral", None),
    "fields.sample_field_batch": ("zpfsim.fields", "sample_field_batch",
                                  lambda a, r: a["n"] * len(a["grid"])),
    "fields.sample_mode_batch": ("zpfsim.fields", "sample_mode_batch", lambda a, r: a["n"]),
    "fields.SampleSet.to_csv": ("zpfsim.fields", "SampleSet.to_csv",
                                lambda a, r: Path(r).stat().st_size),
    "stats.moments": ("zpfsim.stats", "moments", None),
    "stats.ks_test": ("zpfsim.stats", "ks_test", None),
    "stats.histogram": ("zpfsim.stats", "histogram", None),
    "dists.invert_characteristic": ("zpfsim.dists", "invert_characteristic",
                                    lambda a, r: np.size(a["x_grid"]) * a["n_s"]),
    "dists.boyer_generating": ("zpfsim.dists", "boyer_generating",
                               lambda a, r: np.size(a["s"]) * len(a["grid"])),
    "lattice.build_grid": ("zpfsim.lattice", "build_grid", None),
}
# spans that also record the tracemalloc peak of the call
TRACEMALLOC = {"dists.invert_characteristic"}


class Tracer:
    """Span recorder. ``phase`` tags spans as workload or probe work."""

    def __init__(self):
        # [name, start, end, parent, count, phase, alloc, operation number]
        self.spans = []
        self.stack = []
        self.phase = "workload"
        self.ops = {"workload": 0, "probe": 0}
        self.missing = []
        self._undo = []

    def _wrapper(self, name, fn, count):
        sig = inspect.signature(fn)
        traced_alloc = name in TRACEMALLOC

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            if traced_alloc:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                alloc = tracemalloc.get_traced_memory()[1] if traced_alloc else 0
                if traced_alloc:
                    tracemalloc.stop()
                self.stack.pop()
                self.spans[idx] = [name, t0, t1, parent, 0, self.phase, alloc,
                                   self.ops[self.phase]]
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][4] = count(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target wherever zpfsim's modules bind it."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zpfsim" or n.startswith("zpfsim.")]
        for name, (modname, attr, count) in TARGETS.items():
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, fn, count)
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    # ----------------------------------------------------------- metrics

    def _select(self, names):
        """Indices of spans of these names from the workload, else from the
        probe, and the number of operations they came from."""
        for phase in ("workload", "probe"):
            idx = [i for i, s in enumerate(self.spans) if s[0] in names and s[5] == phase]
            if idx:
                return idx, max(self.ops[phase], 1)
        return [], 0

    def _duration(self, i, self_time):
        s = self.spans[i]
        inner = sum(c[2] - c[1] for c in self.spans if c[3] == i) if self_time else 0.0
        return s[2] - s[1] - inner

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}

        def add(metric, names, unit, per="op", scale=1.0, self_time=False):
            idx, ops = self._select(names)
            if not idx:
                return
            t = sum(self._duration(i, self_time) for i in idx)
            work = sum(self.spans[i][4] for i in idx)
            if per == "op":
                out[metric] = (t / ops * scale, unit)
            elif work:
                out[metric] = (t / work * scale, unit)

        def add_count(metric, names, unit, value):
            idx, ops = self._select(names)
            if idx:
                out[metric] = (value([self.spans[i] for i in idx], ops), unit)

        add("rng.stream_us", {"rng.mode_stream", "rng.skip_uniforms"}, "us", "work", 1e6)
        add("rng.uniform_ns", {"rng.mode_uniforms"}, "ns", "work", 1e9, self_time=True)
        add("rng.boxmuller_ns", {"rng.boxmuller"}, "ns", "work", 1e9)
        add("kernels.accumulate_ns",
            {"kernels.accumulate_normal", "kernels.accumulate_phase"}, "ns", "work", 1e9)
        add("oscillator.ensemble_ns", {"oscillator.coordinate_ensemble"}, "ns", "work", 1e9)
        add_count("oscillator.mode_samples", {"oscillator.coordinate_ensemble"}, "count",
                  lambda spans, ops: sum(s[4] for s in spans) / ops)
        add("oscillator.setup_s",
            {"oscillator.resonance_shell_grid", "oscillator.resonance_integral"}, "s")
        add("fields.field_batch_ns", {"fields.sample_field_batch"}, "ns", "work", 1e9)
        add("fields.mode_batch_ns", {"fields.sample_mode_batch"}, "ns", "work", 1e9)
        add("fields.to_csv_s", {"fields.SampleSet.to_csv"}, "s")
        add_count("fields.csv_mb", {"fields.SampleSet.to_csv"}, "MB",
                  lambda spans, ops: sum(s[4] for s in spans) / ops / 1e6)
        add("stats.moments_s", {"stats.moments"}, "s")
        add("stats.ks_s", {"stats.ks_test"}, "s")
        add("stats.histogram_s", {"stats.histogram"}, "s")
        add("dists.invert_ns", {"dists.invert_characteristic"}, "ns", "work", 1e9,
            self_time=True)
        add_count("dists.invert_alloc_mb", {"dists.invert_characteristic"}, "MB",
                  lambda spans, ops: max(s[6] for s in spans) / 1e6)
        add("dists.generating_ns", {"dists.boyer_generating"}, "ns", "work", 1e9)
        add("lattice.grid_s", {"lattice.build_grid"}, "s")
        add("cli.self_s", {"cli.main"}, "s", self_time=True)
        return out

    def dump(self, path, extra):
        payload = dict(extra)
        payload["missing"] = self.missing
        payload["spans"] = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "count": s[4], "phase": s[5], "op": s[7], **({"alloc": s[6]} if s[6] else {})}
            for s in self.spans]
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------- probe

def probe_tour(tracer, seed, workdir):
    """Small direct calls into every layer, under the tracer's wrappers.

    Returns the names of probe steps that raised (their metrics may then
    be missing)."""
    import zpfsim
    from zpfsim import cli, rng

    rng_ = np.random.default_rng(seed)
    zseed = str(int(rng_.integers(0, 2**31)))
    workdir.mkdir(parents=True, exist_ok=True)
    osc_cfg = workdir / "osc.json"
    osc_cfg.write_text(json.dumps({
        "constants": {"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                      "electron_mass": 1.0, "electron_charge": 0.01},
        "oscillator": {"nu0": 1.0, "from_constants": True}}))

    def run_cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--seed", zseed, "--out", str(workdir), "--json"])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")

    def inversion():
        grid = zpfsim.build_grid(4.0 * np.pi, 1.5)
        d = rng_.standard_normal(3)
        d /= np.linalg.norm(d)
        sd = np.sqrt(np.sum((grid.eps @ d) ** 2 * grid.sigma**2))
        zpfsim.invert_characteristic(zpfsim.BesselProductGF(grid, tuple(d)),
                                     np.linspace(-8.0, 8.0, 101) * sd, s_max=10.0 / sd)

    def boxmuller():
        u = rng.mode_uniforms(int(zseed), 0, 2 * 65536).reshape(2, -1)
        for _ in range(4):
            rng.boxmuller(u[0], u[1])

    steps = {
        "total-field": lambda: run_cli("total-field", "--kind", "boyer", "--samples", "5000"),
        "sample-mode": lambda: run_cli("sample-mode", "--kind", "boyer",
                                       "--samples", "100000"),
        "oscillator": lambda: run_cli("oscillator", "--config", str(osc_cfg),
                                      "--samples", "2000"),
        "inversion": inversion,
        "boxmuller": boxmuller,
    }
    failed = []
    tracer.phase = "probe"
    tracer.ops["probe"] = 1
    for name, step in steps.items():
        try:
            step()
        except Exception as exc:  # a removed or changed API: report, keep going
            print(f"probe step {name} failed: {exc!r}", file=sys.stderr)
            failed.append(name)
    tracer.phase = "workload"
    return failed


# ------------------------------------------------------------ import times

_IMPORT_PROBE = """
import builtins, sys, time
sys.path.insert(0, {src!r})
spent = 0.0
plain = builtins.__import__

def timed(name, globals=None, locals=None, fromlist=(), level=0):
    global spent
    if name == "scipy.integrate" or (name == "scipy" and "integrate" in (fromlist or ())):
        t = time.perf_counter()
        try:
            return plain(name, globals, locals, fromlist, level)
        finally:
            spent += time.perf_counter() - t
    return plain(name, globals, locals, fromlist, level)

builtins.__import__ = timed
t0 = time.perf_counter()
import zpfsim
print(spent, time.perf_counter() - t0)
"""


def import_times(src, repeats=3):
    """Cumulative import times in fresh processes (median of ``repeats``):
    all of ``import zpfsim``, and the statements in it that import
    ``scipy.integrate`` (0 when zpfsim no longer imports it)."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(src=str(src))],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import zpfsim failed: {proc.stderr[-500:]}")
        runs.append([float(v) for v in proc.stdout.split()])
    return {"import.scipy_integrate_s": (statistics.median(r[0] for r in runs), "s"),
            "import.zpfsim_s": (statistics.median(r[1] for r in runs), "s")}
