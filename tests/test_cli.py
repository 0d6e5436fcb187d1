import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import zpfsim
from zpfsim import cli, kernels, oscillator, rng
from zpfsim.cli import main
from zpfsim.constants import PhysicalConstants


EMPTY_LATTICE = '{"grid": {"box_side": 1.0, "omega_cutoff": 0.01}}'
LENGTH_WORDING = ("'component' must be three finite real numbers whose squared length is "
                  "a finite nonzero double")


def run_module(*argv):
    """python -m zpfsim argv in a child process. The child imports the package
    under test, also when pytest alone put it on the path (pyproject's
    pythonpath)."""
    src = str(Path(zpfsim.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "zpfsim", *argv],
                          capture_output=True, text=True, env=env)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_fit_sorts_each_sample_set_once(monkeypatch):
    """_fit's KS tests share one sorted copy; each gives ks_test's own result."""
    values = np.random.default_rng(7).standard_normal(5000)
    laws = {"gaussian": zpfsim.GaussianMode(1.0), "arcsine": zpfsim.Arcsine(np.sqrt(2.0))}
    sort, calls = np.sort, []
    monkeypatch.setattr(np, "sort", lambda a, *args, **kw: calls.append(1) or sort(a, *args, **kw))
    fit = cli._fit(values, **laws)
    assert len(calls) == 1
    monkeypatch.setattr(np, "sort", sort)
    for name, law in laws.items():
        assert fit[f"ks_{name}"] == zpfsim.ks_test(values, law.cdf, alpha=0.01).to_dict()
    assert fit["moments"] == zpfsim.moments(values).to_dict()


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
        # the quadrature sets its own panels: a manifest that names them is refused
        ("oscillator", '{"quadrature": {"base_panels": 24}}',
         "unknown config field 'quadrature.base_panels'"),
        ("oscillator", '{"quadrature": {"window_scale": 50.0}}',
         "unknown config field 'quadrature.window_scale'"),
        ("oscillator", '{"shells": {"directions": "sphere"}}', "'shells.directions'"),
        ("oscillator", '{"oscillator": {"nu0": 1.0, "from_constants": false}}',
         "'oscillator.from_constants'"),
        ("generating", '{"density_factors": []}', "'density_factors'"),
        ("generating", '{"density_factors": [-1]}', "'density_factors[0]'"),
        ("generating", '{"command": "figure1"}', "'command'"),
        ("sample-mode", '{"seed": "5"}', "'seed'"),
        # a target with zero variance fails before sampling
        ("total-field", '{"grid": {"kvectors": [[0, 0, 1]], "volume": 1}, '
         '"component": [0, 0, 1]}', "'component'"),
        ("generating", '{"grid": {"kvectors": [[0, 0, 1]], "volume": 1}, '
         '"direction": [0, 0, 1]}', "'direction' must be a direction in which the grid's "
         "field varies"),
        ("oscillator", '{"constants": {"electron_charge": 0.01}, '
         '"shells": {"n_shells": 8, "directions": [[0, 0, 1]]}}', "'shells.directions'"),
        # a lattice with no mode below the cutoff
        ("sample-mode", EMPTY_LATTICE, "'grid.omega_cutoff'"),
        ("total-field", EMPTY_LATTICE, "'grid.omega_cutoff'"),
        ("generating", EMPTY_LATTICE, "error: fields 'grid.box_side', 'grid.omega_cutoff', "
         "'constants.hbar', 'constants.eps0', 'constants.c', 'density_factors[0]' give: "
         "empty grid: smallest nonzero mode frequency 6.28319 exceeds cutoff 0.01"),
        ("generating", '{"density_factors": [1.0, 1e-9]}', "'density_factors[1]'"),
        # finite, nonzero vectors whose squared length overflows or underflows
        ("total-field", '{"component": [1e300, 0, 0]}', LENGTH_WORDING),
        ("total-field", '{"component": [1e-200, 0, 0]}', LENGTH_WORDING),
        ("generating", '{"direction": [0, 1e300, 0]}', "'direction'"),
        ("oscillator", '{"shells": {"directions": [[0, 0, 1e-200]]}}', "'shells.directions'"),
        # a manifest of another stream layout than this version produces
        ("sample-mode", '{"rng_layout": 1}', "'rng_layout'"),
        ("total-field", '{"rng_layout": 1}', "'rng_layout'"),
        ("oscillator", '{"rng_layout": 3}', "'rng_layout'"),
        ("total-field", '{"rng_layout": "2"}', "'rng_layout'"),
        # finite (r, t) whose mode phase k.r - w t, or w t, overflows
        ("total-field", '{"t": 1e308}', "'r' and 't'"),
        ("total-field", '{"r": [1e308, 0, 0]}', "'r' and 't'"),
        ("sample-mode", '{"t": 1e308}', "'r' and 't'"),
        ("oscillator", '{"t": 1e308, "oscillator": {"nu0": 10.0}, '
         '"constants": {"electron_charge": 0.001}, "shells": {"n_shells": 8}}', "'t'"),
        # w t is checked before the quadrature, which fails here (exit 2)
        ("oscillator", '{"t": 1e308, "oscillator": {"nu0": 10.0}, '
         '"constants": {"electron_charge": 0.001}, "shells": {"n_shells": 8}, '
         '"quadrature": {"omega_max": 1e150}}', "'t'"),
        # a custom grid is not scaled: only the default factors pass
        ("generating", '{"grid": {"kvectors": [[1, 0, 0]], "volume": 1.0}, '
         '"density_factors": [2.0]}', "'density_factors'"),
        # counts of 2**63 or more, past what numpy takes as a C long
        ("figure1", '{"points": 9223372036854775808}', "'points'"),
        ("generating", '{"s_points": 9223372036854775808}', "'s_points'"),
        ("oscillator", '{"shells": {"n_shells": 9223372036854775808}, '
         '"constants": {"electron_charge": 0.01}}', "'shells.n_shells'"),
        # constants whose damping Gamma or drive Gamma' is 0, inf or overflows
        ("oscillator", '{"constants": {"eps0": 5e-324}}', "'constants.eps0'"),
        ("oscillator", '{"constants": {"electron_mass": 1e308}}', "'constants.electron_mass'"),
        ("oscillator", '{"constants": {"electron_charge": 1e-308}}',
         "'constants.electron_charge'"),
        ("oscillator", '{"constants": {"electron_charge": 1e308}}',
         "'constants.electron_charge'"),
        ("oscillator", '{"constants": {"c": 1e308}}', "'constants.c'"),
        ("oscillator", '{"constants": {"c": 1e-154}}', "'constants.c'"),
        # constants whose mode scales sigma_k underflow to 0
        ("sample-mode", '{"constants": {"hbar": 5e-324}}', "'constants.hbar'"),
        ("sample-mode", '{"constants": {"eps0": 1e308}}', "'constants.eps0'"),
        ("total-field", '{"constants": {"hbar": 5e-324}}', "'constants.hbar'"),
        ("generating", '{"constants": {"eps0": 1e308}}', "'constants.eps0'"),
        # counts past 2**53, which np.linspace rounds (2**63 - 1 to an empty array)
        ("figure1", '{"points": 9223372036854775807}', "'points'"),
        ("generating", '{"s_points": 9223372036854775807}', "'s_points'"),
        ("total-field", '{"bins": 9223372036854775807}', "'bins'"),
        # lattices too large to build, or with no mode, named by the field that moved
        ("total-field", '{"grid": {"box_side": 1e6}}', "'grid.box_side'"),
        ("sample-mode", '{"grid": {"omega_cutoff": 1e7}}', "'grid.omega_cutoff'"),
        ("total-field", '{"constants": {"c": 1e-154}}', "'constants.c'"),
        ("total-field", '{"constants": {"c": 1e300}}', "'constants.c'"),
        ("generating", '{"density_factors": [1e308]}', "'density_factors[0]'"),
        # a line too broad for the shell grid, named by the field that broadened it
        ("oscillator", '{"oscillator": {"nu0": 1, "gamma": 0.2, "gamma_prime": 1, "mass": 1}}',
         "'oscillator.gamma'"),
        ("oscillator", '{"constants": {"eps0": 0.1}}', "'constants.eps0'"),
        ("oscillator", '{"oscillator": {"nu0": 10}}', "'oscillator.nu0'"),
        # shells so narrow that every mode scale underflows to 0
        ("oscillator", '{"shells": {"coverage": 1e-300}, "constants": {"electron_charge": 0.01}}',
         "'shells.coverage'"),
        # valid counts too large for memory, refused where the array is allocated
        ("sample-mode", '{"samples": 9007199254740992}', "out of memory: fields 'samples' give:"),
        ("total-field", '{"samples": 9007199254740992}', "out of memory: fields 'samples' give:"),
        ("total-field", '{"bins": 9007199254740992}', "out of memory: fields 'bins' give:"),
        ("figure1", '{"points": 9007199254740992}', "out of memory: fields 'points' give:"),
        ("generating", '{"s_points": 9007199254740992}',
         "out of memory: fields 's_points' give:"),
        ("oscillator", '{"samples": 9007199254740992, "constants": {"electron_charge": 0.01}, '
         '"shells": {"n_shells": 8}}', "out of memory: fields 'samples' give:"),
        # a computed default that fails names the field it is computed from
        ("oscillator", '{"oscillator": {"nu0": 1e308}}', "fields 'oscillator.nu0' give:"),
    ], ids=["mode_index_999", "mode_index_negative", "mode_index_fraction", "level",
            "level_cap", "points_0", "points_1", "alpha_0", "alpha_nan", "amplitude_inf",
            "amplitude_negative", "amplitude_huge", "amplitude_tiny", "bins",
            "box_side_null", "box_side_text", "grid_null", "volume_missing", "base_panels",
            "window_scale", "directions", "from_constants", "density_empty", "density_negative",
            "command", "seed_text", "component_zero_variance", "direction_zero_variance",
            "directions_zero_variance",
            "empty_lattice_sample_mode", "empty_lattice_total_field",
            "empty_lattice_generating", "density_empty_lattice", "component_overflow",
            "component_underflow", "direction_overflow", "shell_direction_underflow",
            "rng_layout_1_sample_mode", "rng_layout_1_total_field", "rng_layout_3_oscillator",
            "rng_layout_text", "huge_t_total_field", "huge_r_total_field",
            "huge_t_sample_mode", "huge_t_oscillator", "huge_t_oscillator_before_quadrature",
            "density_custom_grid", "points_2^63", "s_points_2^63", "n_shells_2^63",
            "eps0_tiny", "electron_mass_huge", "electron_charge_tiny",
            "electron_charge_huge", "c_huge", "c_tiny",
            "hbar_tiny_sample_mode", "eps0_huge_sample_mode", "hbar_tiny_total_field",
            "eps0_huge_generating", "points_2^63-1", "s_points_2^63-1", "bins_2^63-1",
            "box_side_huge", "omega_cutoff_huge", "c_tiny_total_field", "c_huge_total_field",
            "density_huge", "gamma_broad_line", "eps0_broad_line", "nu0_broad_line",
            "coverage_tiny", "samples_2^53_sample_mode", "samples_2^53_total_field",
            "bins_2^53", "points_2^53", "s_points_2^53", "samples_2^53_oscillator",
            "nu0_huge_omega_max_default"])
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

    def test_out_is_not_a_file(self, tmp_path, capsys):
        """--out naming a file, a path under one or a dangling link exits 1
        before the run."""
        (tmp_path / "f").write_text("keep")
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        for out in (tmp_path / "f", tmp_path / "f" / "o", tmp_path / "link"):
            assert main(["figure1", "--seed", "1", "--out", str(out)]) == 1
            assert "'out'" in capsys.readouterr().err
        assert (tmp_path / "f").read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "link"]

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
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text", [
        ("oscillator", '{"constants": {"hbar": 1e-308, "electron_charge": 0.01}}'),
        ("generating", '{"constants": {"c": 5e-324}}'),
        ("generating", '{"constants": {"hbar": 1e308}}'),
        ("generating", '{"grid": {"kvectors": [[1e-160, 0, 0]], "volume": 1.0}}'),
        ("generating", '{"constants": {"c": 1e-308}}'),
        ("generating", '{"grid": {"omega_cutoff": 1e308}}'),
        # numpy overflows in the moments, also in the mode sum's second thread
        ("oscillator", '{"constants": {"hbar": 1e308, "electron_charge": 0.01}, '
         '"samples": 100}'),
        ("oscillator", '{"constants": {"hbar": 1e308, "electron_charge": 0.01}}'),
    ], ids=["osc_hbar_tiny", "gen_c_denormal",
            "gen_hbar_huge", "gen_kvector_tiny", "gen_c_tiny", "gen_cutoff_huge",
            "osc_non_finite_report", "osc_hbar_huge_two_threads"])
    def test_numerical_error_exit_2(self, tmp_path, command, text):
        """An overflow, a division by zero or a non-finite result exits 2 with
        one line of message and writes nothing: numpy's warnings are raised,
        not printed. The run is a child process: the suite turns the numpy
        warnings on its way into exceptions."""
        (tmp_path / "c.json").write_text(text)
        out = run_module(command, "--seed", "1", "--config", str(tmp_path / "c.json"),
                         "--out", str(tmp_path / "o"))
        assert out.returncode == 2, out.stderr
        [line] = out.stderr.splitlines()
        assert line.startswith("numerical error: ")
        assert "RuntimeWarning" not in out.stderr and ".py:" not in out.stderr
        if '"hbar": 1e308' in text:
            numpy_error = "overflow" if command == "oscillator" else "invalid value"
            assert line == f"numerical error: {numpy_error} encountered in multiply"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error, text", [
        (MemoryError("no room"), "error: out of memory: fields 'samples' give: no room"),
        (ValueError("bad range"), "error: bad range"),
    ], ids=["memory", "value"])
    def test_worker_thread_error_exit_1(self, tmp_path, capsys, monkeypatch, error, text):
        # three threads of 10 rows; the one that starts at row 10 fails
        monkeypatch.setattr(kernels, "WORKERS", 3)
        monkeypatch.setattr(kernels, "MIN_ROWS", 10)
        position = rng.position

        def position_or_fail(gen, key, n):
            if n == 10 * rng.BLOCK_NORMAL_PAIR:
                raise error
            return position(gen, key, n)

        monkeypatch.setattr(rng, "position", position_or_fail)
        rc = main(["total-field", "--seed", "1", "--kind", "modified", "--samples", "30",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines()[-1] == text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, keys, nested", [
        (["sample-mode", "--samples", "200"],
         {"kind", "samples", "constants", "rng_layout", "r", "t", "grid", "mode_index"},
         {"rng_layout": 2, "grid": {"box_side": 2.0 * np.pi, "omega_cutoff": 2.5}}),
        (["total-field", "--samples", "200"],
         {"kind", "samples", "constants", "rng_layout", "r", "t", "grid", "component",
          "bins"},
         {"rng_layout": 2, "grid": {"box_side": 2.0 * np.pi, "omega_cutoff": 2.5}}),
        (["oscillator", "--samples", "200", "--config", "osc.json"],
         {"kind", "samples", "constants", "rng_layout", "t", "oscillator", "shells",
          "quadrature"},
         {"rng_layout": 2, "oscillator": {"from_constants": True, "nu0": 1.0},
          "shells": {"n_shells": 8, "directions": "axes", "coverage": 0.999},
          "quadrature": {"omega_max": 50.0}}),
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
        assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()
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

    def test_explicit_gamma_names_only_its_fields(self, tmp_path, capsys):
        # Gamma*nu0 = 0.2: too broad for the shell grid, and no constant set it
        cfg = self.config(tmp_path, oscillator={"nu0": 1, "gamma": 0.2, "gamma_prime": 1,
                                                "mass": 1})
        assert main(["oscillator", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'oscillator.gamma'" in err and "'shells.coverage'" in err
        assert "electron_charge" not in err and "electron_mass" not in err

    def test_low_cutoff_warns(self, tmp_path, capsys):
        # a plain warning line, as for Gamma*nu0, not a Python warning
        cfg = self.config(tmp_path, samples=100, quadrature={"omega_max": 5.0})
        rc = main(["oscillator", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line] == [
            "warning: omega_max = 5 is below 10*nu0; the comparison with the resonance "
            "closed form is degraded"]

    def test_overflowing_quadrature_exit_2(self, tmp_path, capsys):
        # the integrand overflows to nan at this omega_max: exit 2, not a NaN
        # in report.json (the suite turns a numpy warning into a failure)
        cfg = self.config(tmp_path, samples=100, quadrature={"omega_max": 1e150})
        rc = main(["oscillator", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "converge" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_convergence_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = self.config(
            tmp_path, samples=100,
            oscillator={"nu0": 1.0, "gamma": 1e-9, "gamma_prime": 1.0, "mass": 1.0})
        # too few panels, in a window far narrower than the line, to resolve it
        monkeypatch.setattr(oscillator, "BASE_PANELS", 1)
        monkeypatch.setattr(oscillator, "WINDOW_SCALE", 1e-4)
        monkeypatch.setattr(oscillator, "MAX_DOUBLINGS", 1)
        # the quadrature fails before any sampling
        monkeypatch.setattr(oscillator, "coordinate_ensemble",
                            lambda *a, **k: pytest.fail("sampled before the quadrature"))
        rc = main(["oscillator", "--config", str(cfg), "--out", str(tmp_path / "o2")])
        assert rc == 2
        assert "converge" in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()


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

    def test_custom_grid_keeps_default_density_factors(self, tmp_path):
        # the manifest of a custom-grid run carries the default factors,
        # which a custom grid accepts, so it reloads to the same run
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "grid": {"kvectors": [[1, 0, 0]], "volume": 1.0}}')
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["generating", "--config", str(cfg), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["density_factors"] == [1.0, 4.0, 16.0]
        assert read_report(first)["files"] == ["generating_custom.csv"]
        assert main(["generating", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

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


SWEEP_BASES = {
    "sample-mode": {"samples": 10},
    "total-field": {"samples": 10},
    "oscillator": {"samples": 10, "constants": {"electron_charge": 0.01},
                   "shells": {"n_shells": 8}},
    "figure1": {},
    "generating": {"s_points": 11},
}
# 3-vector fields, which the parser names whole
VECTORS = {key for spec in cli.SPECS.values() for key, (_, parse) in spec.items()
           if parse in (cli.POINT, cli.DIRECTION)}


def leaves(tree, kind, path=()):
    """The path of every leaf of this type (bool aside) of a resolved config;
    a list of them has the path of its first entry."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, kind, path + (key,))
        elif isinstance(value, list) and isinstance(value[0], kind):
            yield path + (key, 0)
        elif isinstance(value, kind) and not isinstance(value, bool):
            yield path + (key,)


def test_extreme_values_keep_the_exit_contract(tmp_path, capsys):
    """Each real-valued field of each subcommand, set alone to 1e-300 or
    1e300, and each integer field but the seed, set alone to 2**53, in a
    config that otherwise exits 0: the run exits 0, 1 or 2 with no source
    line on stderr, an exit 1 names the field, and a failed run leaves no
    output directory. numpy refuses a 2**53-row array at once."""
    runs = 0
    for command, base in SWEEP_BASES.items():
        resolved = cli._resolve(cli.SPECS[command], {"seed": 1, **base})
        del resolved["out"]
        extremes = [(path, (1e-300, 1e300)) for path in leaves(resolved, float)]
        extremes += [(path, (2**53,)) for path in leaves(resolved, int) if path != ("seed",)]
        for path, values in extremes:
            keys = [key for key in path if isinstance(key, str)]
            names = [".".join(keys) + ("[0]" if path[-1] == 0 else "")]
            if keys[0] in VECTORS:
                names.append(keys[0])
            for value in values:
                cfg = json.loads(json.dumps(resolved))
                node = cfg
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                runs += 1
                config, out = tmp_path / f"c{runs}.json", tmp_path / f"o{runs}"
                config.write_text(json.dumps(cfg))
                rc = main([command, "--config", str(config), "--out", str(out)])
                err = capsys.readouterr().err
                case = f"{command} {names[0]}={value}: exit {rc}: {err}"
                assert rc in (0, 1, 2), case
                assert "Traceback" not in err and ".py:" not in err, case
                assert rc != 1 or any(f"'{name}'" in err for name in names), case
                assert rc == 0 or not out.exists(), case
    assert runs == 2 * 39 + 12


@pytest.mark.parametrize("argv", [
    ["sample-mode", "--samples", "500"],
    ["total-field", "--samples", "200"],
    ["oscillator", "--samples", "200", "--config", "osc.json"],
    ["figure1"],
    ["generating"],
], ids=lambda argv: argv[0])
def test_csv_files_contract(tmp_path, argv):
    """Every CSV a subcommand writes starts '# zpfsim ' and has no clock
    line; reruns give byte-identical CSVs and report.json."""
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
    assert sorted(p.name for p in a.iterdir()) == sorted([*names, "manifest.json",
                                                          "report.json"])
    for name in names:
        lines = (a / name).read_text().splitlines()
        assert lines[0].startswith("# zpfsim ")
        assert not any(line.startswith("# generated:") for line in lines)
    for name in [*names, "report.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_module_entry_point(tmp_path):
    out = run_module("figure1", "--seed", "1", "--out", str(tmp_path / "m"), "--json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["interior_zeros"] == 12
