import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import zpfsim
from zpfsim.cli import main
from zpfsim.constants import PhysicalConstants


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def strip_timestamps(path):
    return "\n".join(line for line in path.read_text().splitlines()
                     if not line.startswith("# generated:"))


class TestValidation:
    def test_missing_seed_exit_1(self, tmp_path, capsys):
        rc = main(["sample-mode", "--out", str(tmp_path)])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_kind_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "kind": "weird"}))
        rc = main(["sample-mode", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "kind" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["sample-mode", "--seed", "1", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_invalid_samples(self, tmp_path, capsys):
        # 5 is too few for the KS test that every sampling subcommand runs
        for samples in ("0", "5"):
            rc = main(["sample-mode", "--seed", "1", "--samples", samples,
                       "--out", str(tmp_path / "o")])
            assert rc == 1
            assert "'samples'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_non_finite_constant(self, tmp_path, capsys):
        # json reads 1e400 as inf, which is > 0 but not a usable constant
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 1, "constants": {"hbar": 1e400}}')
        rc = main(["sample-mode", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "hbar" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"seed": 1, "t": 1e400}', "'t'"),
        ('{"seed": 1, "r": [1e400, 0, 0]}', "'r'"),
        ('{"seed": 1, "r": [1, 2]}', "'r'"),
    ], ids=["t_inf", "r_inf", "r_short"])
    def test_malformed_evaluation_point(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sample-mode", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("sample-mode", '{"seed": 5, "sampels": 5}', "'sampels' (did you mean 'samples'?)"),
        ("oscillator", '{"seed": 5, "shels": {}}', "'shels' (did you mean 'shells'?)"),
        ("sample-mode", '{"seed": 5, "xyzzy": 1}', "unknown config field 'xyzzy'"),
        ("oscillator", '{"seed": 5, "shells": {"n_shell": 8}}',
         "'shells.n_shell' (did you mean 'shells.n_shells'?)"),
        ("total-field", '{"seed": 5, "mode_index": 3}', "unknown config field 'mode_index'"),
        ("figure1", '{"seed": 5, "kind": "boyer"}', "unknown config field 'kind'"),
    ], ids=["samples", "shells", "no_match", "nested", "other_command", "unread"])
    def test_unknown_key(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, field", [
        ("sample-mode", '{"mode_index": 999}', "'mode_index'"),
        ("sample-mode", '{"mode_index": -1}', "'mode_index'"),
        ("sample-mode", '{"mode_index": 1.7}', "'mode_index'"),
        ("figure1", '{"level": -1}', "'level'"),
        ("figure1", '{"level": 171}', "'level'"),
        ("figure1", '{"points": 0}', "'points'"),
        ("figure1", '{"points": 1}', "'points'"),
        ("figure1", '{"alpha": 0}', "'alpha'"),
        ("figure1", '{"alpha": NaN}', "'alpha'"),
        ("figure1", '{"amplitude": 1e400}', "'amplitude'"),
        ("figure1", '{"amplitude": -1.0}', "'amplitude'"),
        ("figure1", '{"amplitude": 1e300}', "'amplitude'"),
        ("figure1", '{"amplitude": 1e-300}', "'amplitude'"),
        ("total-field", '{"bins": 0}', "'bins'"),
        ("sample-mode", '{"grid": {"box_side": null}}', "'grid.box_side'"),
        ("sample-mode", '{"grid": {"box_side": "abc"}}', "'grid.box_side'"),
        ("total-field", '{"grid": null}', "'grid'"),
        ("total-field", '{"grid": {"kvectors": [[0, 0, 1]]}}', "'grid.volume'"),
        ("oscillator", '{"quadrature": {"base_panels": 0}}', "'quadrature.base_panels'"),
        ("oscillator", '{"shells": {"directions": "sphere"}}', "'shells.directions'"),
        ("oscillator", '{"oscillator": {"nu0": 1.0, "from_constants": false}}',
         "'oscillator.from_constants'"),
        ("generating", '{"density_factors": []}', "'density_factors'"),
        ("generating", '{"density_factors": [-1]}', "'density_factors[0]'"),
        ("generating", '{"command": "figure1"}', "'command'"),
        ("sample-mode", '{"seed": "5"}', "'seed'"),
    ], ids=["mode_index_999", "mode_index_negative", "mode_index_fraction", "level",
            "level_cap", "points_0", "points_1", "alpha_0", "alpha_nan", "amplitude_inf",
            "amplitude_negative", "amplitude_huge", "amplitude_tiny", "bins",
            "box_side_null", "box_side_text", "grid_null", "volume_missing", "base_panels",
            "directions", "from_constants", "density_empty", "density_negative", "command",
            "seed_text"])
    def test_bad_field(self, tmp_path, capsys, command, text, field):
        """Each bad value exits 1 naming its field, before any output exists."""
        cfg = json.loads(text)
        cfg.setdefault("seed", 1)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sample-mode", "--seed", "abc"],
        ["figure1", "--seed", "1", "--samples", "3"],
        ["generating", "--seed", "1", "--kind", "boyer"],
        ["total-field", "--seed", "1", "--kind", "weird"],
    ], ids=["seed_text", "figure1_samples", "generating_kind", "bad_kind"])
    def test_usage_error_exit_1(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, size", [
        ("total-field", '{"grid": {"box_side": 6.283185307179586, "omega_cutoff": 1e5}}',
         "56.8 PiB"),
        ("total-field", '{"samples": 1000000000000000}', "21.3 PiB"),
        ("oscillator", '{"shells": {"n_shells": 1000000000000000}}', "7.11 PiB"),
    ], ids=["lattice", "samples", "shells"])
    def test_out_of_memory_exit_1(self, tmp_path, capsys, command, text, size):
        # numpy refuses each of these allocations at once, allocating nothing
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        rc = main([command, "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: out of memory:") and size in err

    @pytest.mark.parametrize("argv, keys, nested", [
        (["sample-mode", "--samples", "200"],
         {"kind", "samples", "constants", "r", "t", "grid", "mode_index"},
         {"grid": {"box_side": 2.0 * np.pi, "omega_cutoff": 2.5}}),
        (["total-field", "--samples", "200"],
         {"kind", "samples", "constants", "r", "t", "grid", "component", "bins"},
         {"grid": {"box_side": 2.0 * np.pi, "omega_cutoff": 2.5}}),
        (["oscillator", "--samples", "200", "--config", "osc.json"],
         {"kind", "samples", "constants", "t", "oscillator", "shells", "quadrature"},
         {"oscillator": {"from_constants": True, "nu0": 1.0},
          "shells": {"n_shells": 8, "directions": "axes", "coverage": 0.999},
          "quadrature": {"omega_max": 50.0, "base_panels": 24, "window_scale": 50.0}}),
        (["figure1"], {"level", "alpha", "amplitude", "points"}, {}),
        (["generating"], {"constants", "grid", "direction", "s_points", "density_factors"},
         {"grid": {"box_side": 4.0 * np.pi, "omega_cutoff": 1.5}}),
    ], ids=["sample-mode", "total-field", "oscillator", "figure1", "generating"])
    def test_manifest_keys_reload(self, tmp_path, argv, keys, nested):
        """The manifest holds exactly the subcommand's fields, nested defaults
        filled in, and reloading it reproduces report.json byte for byte."""
        (tmp_path / "osc.json").write_text(json.dumps({
            "constants": {"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                          "electron_mass": 1.0, "electron_charge": 0.01},
            "shells": {"n_shells": 8}}))
        argv = [str(tmp_path / a) if a == "osc.json" else a for a in argv]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, "--seed", "4", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert set(manifest) == keys | {"command", "seed", "out"}
        assert manifest["command"] == argv[0]
        for key, value in nested.items():
            assert manifest[key] == value
        if "constants" in keys and "--config" not in argv:
            assert manifest["constants"] == PhysicalConstants().to_dict()
        assert main([argv[0], "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert read_report(first) == read_report(second)
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


class TestSampleMode:
    def test_modified_passes_gaussian(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["sample-mode", "--seed", "7", "--kind", "modified",
                   "--samples", "20000", "--out", str(out), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ks_gaussian"]["passed"]
        assert not summary["ks_arcsine"]["passed"]
        assert (out / "samples.csv").exists()
        assert (out / "manifest.json").exists()
        report = read_report(out)
        assert report == summary

    def test_boyer_passes_arcsine_fails_gaussian(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["sample-mode", "--seed", "7", "--kind", "boyer",
                   "--samples", "20000", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["ks_arcsine"]["passed"]
        assert not report["ks_gaussian"]["passed"]

    def test_manifest_reingests_to_same_run(self, tmp_path):
        first = tmp_path / "first"
        assert main(["sample-mode", "--seed", "11", "--samples", "400",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["sample-mode", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert (strip_timestamps(first / "samples.csv")
                == strip_timestamps(second / "samples.csv"))
        assert read_report(first) == read_report(second)


class TestTotalField:
    def test_modified_run(self, tmp_path):
        out = tmp_path / "tf"
        rc = main(["total-field", "--seed", "5", "--kind", "modified",
                   "--samples", "5000", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["ks_gaussian"]["passed"]
        assert report["n_modes"] == 160
        assert (out / "histogram.csv").exists()

    def test_custom_grid_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 2, "kind": "boyer", "samples": 5000,
            "grid": {"kvectors": [[0.0, 0.0, 1.0]], "volume": 248.05021344239853},
        }))
        out = tmp_path / "tf2"
        rc = main(["total-field", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["n_modes"] == 2
        assert not report["ks_gaussian"]["passed"]

    def test_zero_component(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 1, "component": [0, 0, 0]}')
        rc = main(["total-field", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "'component'" in capsys.readouterr().err

    def test_component_metadata_line(self, tmp_path):
        out = tmp_path / "tf3"
        assert main(["total-field", "--seed", "1", "--samples", "100",
                     "--out", str(out)]) == 0
        assert "# component: [1.0, 0.0, 0.0]" in (out / "histogram.csv").read_text()


class TestOscillator:
    def config(self, tmp_path, **overrides):
        cfg = {
            "seed": 5, "kind": "modified", "samples": 4000,
            "constants": {"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                          "electron_mass": 1.0, "electron_charge": 0.01},
            "oscillator": {"nu0": 1.0, "from_constants": True},
            "shells": {"n_shells": 32, "directions": "axes", "coverage": 0.999},
        }
        cfg.update(overrides)
        path = tmp_path / "osc.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_reports_variances(self, tmp_path):
        out = tmp_path / "osc"
        rc = main(["oscillator", "--config", str(self.config(tmp_path)),
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["predicted_variance"] == pytest.approx(0.5)
        for v in report["empirical_variance_per_axis"]:
            assert v == pytest.approx(0.5, rel=0.10)
        assert all(k["passed"] for k in report["ks_gaussian_per_axis"])
        assert report["bohr_radius_sq_predicted"] == pytest.approx(1.0)
        assert (out / "coordinates.csv").exists()

    def test_manifest_reloads(self, tmp_path):
        cfg = self.config(tmp_path, samples=200,
                          shells={"n_shells": 8, "directions": "axes", "coverage": 0.999})
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["oscillator", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["oscillator", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert read_report(first) == read_report(second)

    def test_resonance_warning_on_broad_line(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path,
            constants={"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                       "electron_mass": 1.0, "electron_charge": 1.0},
            samples=200,
            quadrature={"omega_max": 50.0},
        )
        rc = main(["oscillator", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "resonance" in capsys.readouterr().err

    @pytest.mark.parametrize("directions, n_dirs", [
        ("axes", 6), (4, 4), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
    ], ids=["axes", "count", "vectors"])
    def test_shell_direction_forms(self, tmp_path, directions, n_dirs):
        cfg = self.config(tmp_path, samples=100,
                          shells={"n_shells": 4, "directions": directions})
        out = tmp_path / "o"
        assert main(["oscillator", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_report(out)["n_modes"] == 4 * n_dirs * 2
        shells = json.loads((out / "manifest.json").read_text())["shells"]
        assert shells == {"n_shells": 4, "directions": directions, "coverage": 0.999}

    def test_default_constants_name_the_fix(self, tmp_path, capsys):
        # unit constants give Gamma*nu0 = 0.053, too broad for the shell grid
        rc = main(["oscillator", "--seed", "3", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        for text in ("Gamma*nu0 = 0.0531", "'constants.electron_charge'", "'shells.coverage'"):
            assert text in err
        assert not (tmp_path / "o").exists()

    def test_convergence_failure_exit_2(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path, samples=100,
            oscillator={"nu0": 1.0, "gamma": 1e-9, "gamma_prime": 1.0, "mass": 1.0},
            quadrature={"base_panels": 1, "window_scale": 1e-4},
        )
        rc = main(["oscillator", "--config", str(cfg), "--out", str(tmp_path / "o2")])
        assert rc == 2
        assert "converge" in capsys.readouterr().err


class TestFigure1:
    def test_curves(self, tmp_path):
        out = tmp_path / "fig"
        rc = main(["figure1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["interior_zeros"] == 12
        assert report["classical_pdf_at_0"] == pytest.approx(1 / np.pi)
        for name in report["files"]:
            assert (out / name).exists()
        # ground-state curve peaks at x = 0
        rows = [line.split(",") for line in (out / "ground_state_pdf.csv").read_text()
                .splitlines() if line and not line.startswith("#")][1:]
        xs = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        assert xs[np.argmax(ps)] == pytest.approx(0.0, abs=1e-12)
        assert np.max(ps) == pytest.approx(1 / np.sqrt(np.pi), rel=1e-12)

    def test_curves_are_finite(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["figure1", "--seed", "1", "--out", str(out)]) == 0
        for name in read_report(out)["files"]:
            rows = [line for line in (out / name).read_text().splitlines()
                    if line and not line.startswith("#")][1:]
            vals = np.array([[float(v) for v in r.split(",")] for r in rows])
            assert np.all(np.isfinite(vals))

    def test_huge_amplitude_runs_without_overflow_warning(self, tmp_path):
        # alpha * x reaches 1e155 there, so xi^2 in the Hermite factor is inf
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "amplitude": 1.3e154}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["figure1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestGenerating:
    def test_density_sweep(self, tmp_path):
        out = tmp_path / "gen"
        rc = main(["generating", "--seed", "1", "--out", str(out), "--json"])
        assert rc == 0
        report = read_report(out)
        assert len(report["sweep"]) == 3
        devs = [row["max_deviation"] for row in report["sweep"]]
        assert devs[0] > devs[1] > devs[2]
        for ratio in report["deviation_ratios"]:
            assert 3.0 < ratio < 7.0
        # s = 0 row: both generating functions equal 1
        first = (out / report["files"][0]).read_text().splitlines()
        header = next(l for l in first if l and not l.startswith("#")).split(",")
        row0 = first[first.index(",".join(header)) + 1].split(",")
        data = dict(zip(header, (float(v) for v in row0)))
        assert "# direction: [0.0, 0.0, 1.0]" in first
        assert data["s"] == 0.0
        assert data["bessel_product"] == 1.0
        assert data["gaussian_lattice"] == 1.0

    @pytest.mark.parametrize("direction", ["[0, 0, 0]", "[NaN, 0, 1]", "[1e400, 0, 0]",
                                           "[1, 0]", "\"z\""],
                             ids=["zero", "nan", "inf", "short", "string"])
    def test_bad_direction(self, tmp_path, capsys, direction):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"seed": 1, "direction": {direction}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["generating", "--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--json"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "'direction'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("s_points", ["0", "1", "-3", "\"many\""])
    def test_bad_s_points(self, tmp_path, capsys, s_points):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"seed": 1, "s_points": {s_points}}}')
        rc = main(["generating", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "'s_points'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_mode_row_matches_direct_evaluation(self, tmp_path):
        from scipy.special import j0
        volume = 2.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1,
            "grid": {"kvectors": [[0.0, 0.0, 1.0]], "volume": volume,
                     "polarizations": [1]},
            "direction": [1.0, 0.0, 0.0],
        }))
        out = tmp_path / "gen1"
        assert main(["generating", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l for l in (out / "generating_custom.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        sigma = np.sqrt(1.0 / (2 * volume))
        for row in lines[1:]:
            data = dict(zip(header, (float(v) for v in row.split(","))))
            expected = abs(j0(np.sqrt(2) * sigma * data["s"])
                           - np.exp(-(sigma * data["s"]) ** 2 / 2))
            assert data["deviation"] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["sample-mode", "--samples", "500"],
    ["total-field", "--samples", "200"],
    ["oscillator", "--samples", "200", "--config", "osc.json"],
    ["figure1"],
    ["generating"],
], ids=lambda argv: argv[0])
def test_csv_files_contract(tmp_path, argv):
    """Every CSV a subcommand writes starts '# zpfsim ', has its one
    timestamp line second, and reruns byte-identical apart from it."""
    (tmp_path / "osc.json").write_text(json.dumps({
        "constants": {"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                      "electron_mass": 1.0, "electron_charge": 0.01},
        "shells": {"n_shells": 8, "directions": "axes", "coverage": 0.999}}))
    argv = [str(tmp_path / a) if a == "osc.json" else a for a in argv]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
    names = read_report(a)["files"]
    assert names and all(name.endswith(".csv") for name in names)
    for name in names:
        lines = (a / name).read_text().splitlines()
        assert lines[0].startswith("# zpfsim ")
        assert [i for i, line in enumerate(lines) if line.startswith("# generated:")] == [1]
        assert strip_timestamps(a / name) == strip_timestamps(b / name)


def test_module_entry_point(tmp_path):
    # the child imports the package under test, also when pytest alone put
    # it on the path (pyproject's pythonpath)
    src = str(Path(zpfsim.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "zpfsim", "figure1", "--seed", "1",
         "--out", str(tmp_path / "m"), "--json"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["interior_zeros"] == 12
