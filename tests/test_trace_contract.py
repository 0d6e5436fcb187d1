"""The benchmark's traced run reports every per-layer metric.

perfbench/layers.py wraps public zpfsim functions by name and derives each
per-layer metric from the spans of a workload phase, else of its probe tour.
A metric silently drops out of a traced result when the program stops
calling a traced name in a way the tracer can count (rng.stream_us, for one,
needs rng.mode_stream spans with a work count). This test runs a small
workload and the probe tour under the tracer, in this process, and checks
that every per-layer name in BENCHMARK.json is reported, except the import
times, which the benchmark measures in a fresh process.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import zpfsim
import zpfsim.cli
from zpfsim import kernels

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    return layers


def test_traced_run_reports_every_layer(layers, monkeypatch, tmp_path):
    monkeypatch.setattr(kernels, "WORKERS", 2)
    rows = str(2 * kernels.MIN_ROWS)   # two threads in each mode sum
    osc = tmp_path / "osc.json"
    osc.write_text(json.dumps({
        "constants": {"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                      "electron_mass": 1.0, "electron_charge": 0.01},
        "oscillator": {"nu0": 1.0, "from_constants": True},
        "shells": {"n_shells": 4}}))
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if not m["name"].startswith("import.")}

    tracer = layers.Tracer()
    tracer.install()   # wraps zpfsim's modules that are already imported
    try:
        tracer.ops["workload"] += 1
        for argv in (["oscillator", "--config", str(osc)],
                     ["total-field", "--kind", "boyer"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = zpfsim.cli.main([*argv, "--samples", rows, "--seed", "5",
                                        "--out", str(tmp_path / argv[0])])
            assert code == 0
        failed = layers.probe_tour(tracer, 5, tmp_path / "probe")
    finally:
        tracer.uninstall()
    assert failed == []
    assert expected - set(tracer.metrics()) == set()
