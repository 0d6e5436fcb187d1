"""Command-line driver: every experiment as a deterministic, seeded run.

Subcommands, with the top-level config fields each reads besides command,
seed (required) and out; SPECS holds every field's default and check:
    sample-mode   single-mode amplitude samples + KS reports
                  kind samples constants r t grid mode_index
    total-field   one component of the summed field + histogram + KS
                  kind samples constants r t grid component bins
    oscillator    driven-oscillator coordinate ensemble + variance report
                  kind samples constants t oscillator shells quadrature
    figure1       classical / quantum oscillator density curves as CSV
                  level alpha amplitude points
    generating    Bessel-product vs Gaussian generating-function sweep
                  constants grid direction s_points density_factors

Every run requires an explicit seed (no wall-clock default) and checks its
config before writing anything: an unknown key, top-level or nested, or a
bad value exits 1 naming the field. It writes the resolved config as
manifest.json (re-ingestable via --config) and CSV with 17 significant
digits. Exit codes: 0 success, 1 usage or validation error or a run too
large for memory, 2 numerical error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

import numpy as np

from . import dists, fields, oscillator, stats
from .constants import PhysicalConstants
from .dists import (
    Arcsine,
    GaussianMode,
    InsufficientRangeError,
    boyer_generating,
    classical_oscillator_pdf,
    gaussian_generating,
    hermite_function,
    quantum_oscillator_pdf,
    total_field_sigma,
)
from .lattice import ModeGrid, build_grid, grid_from_kvectors, unit_vector
from .oscillator import ConvergenceError, OscillatorParams


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------ field specs
# A spec maps each field to (default, parser); a callable default is
# computed from the root config resolved so far. A parser takes (value,
# dotted field name, root) and returns the value to use.
REQUIRED = object()


def _check(ok, what, convert=None):
    """A parser of the values ok accepts; its errors name the field."""
    def parse(value, name, root=None):
        if not ok(value):
            raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


def _number(v, kind=(int, float)) -> bool:   # no bool, nan, inf or huge int
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _point(v, nonzero=False) -> bool:   # nonzero: can be normalized
    return (isinstance(v, list) and len(v) == 3 and all(map(_number, v))
            and (not nonzero or 0.0 < np.linalg.norm(v) < np.inf))


def _int(minimum):
    return _check(lambda v: _number(v, int) and v >= minimum, f"an integer >= {minimum}")


def _choice(*options):
    return _check(lambda v: any(type(v) is type(o) and v == o for o in options),
                  f"one of {json.dumps(options)}")


def _list(item):
    """A non-empty list whose entries item parses as name[i]."""
    def parse(value, name, root=None):
        _check(lambda v: isinstance(v, list) and v, "a non-empty list")(value, name)
        return [item(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return parse


def _object(spec, marker=None, alt=None):
    """A JSON object whose fields spec lists, or alt does if it holds marker."""
    def parse(value, name, root):
        _check(lambda v: isinstance(v, dict), "a JSON object")(value, name)
        return _resolve(alt if marker in value else spec, value, name + ".", root)
    return parse


def _grid(box_side, omega_cutoff):
    """A lattice grid with these defaults, or a custom one given by kvectors."""
    return {}, _object(
        {"box_side": (box_side, POSITIVE), "omega_cutoff": (omega_cutoff, POSITIVE)},
        "kvectors", {"kvectors": (REQUIRED, _list(DIRECTION)), "volume": (REQUIRED, POSITIVE),
                     "polarizations": ([1, 2], _list(_choice(1, 2)))})


REAL = _check(_number, "a finite real number", float)
POSITIVE = _check(lambda v: _number(v) and v > 0, "a finite real number > 0", float)
POINT = _check(_point, "three finite real numbers", lambda v: list(map(float, v)))
DIRECTION = _check(lambda v: _point(v, nonzero=True), "three finite real numbers, not all zero",
                   lambda v: list(map(float, v)))
SAMPLING = dict(
    kind=("modified", _choice("boyer", "modified")),
    samples=(10000, _int(10)),   # every sampling subcommand runs a KS test
    # kept as given: report.json echoes an int electron_mass as an int
    constants=({}, _object({name: (value, _check(lambda v: _number(v) and v > 0,
                                                "a finite real number > 0"))
                           for name, value in PhysicalConstants().to_dict().items()})))
FIELD = dict(SAMPLING, r=([0.0, 0.0, 0.0], POINT), t=(0.0, REAL), grid=_grid(2.0 * np.pi, 2.5))

SPECS = {command: {"command": (command, _choice(command)), "seed": (REQUIRED, _int(0)),
                   "out": ("zpfsim-out", _check(lambda v: isinstance(v, str) and v,
                                                "a non-empty string")), **spec}
         for command, spec in {
    "sample-mode": dict(FIELD, mode_index=(0, _int(0))),
    "total-field": dict(FIELD, component=([1.0, 0.0, 0.0], DIRECTION), bins=(60, _int(1))),
    "oscillator": dict(
        SAMPLING, t=(0.0, REAL),
        # damping and drive follow from the constants unless gamma is given
        oscillator=({}, _object(
            {"from_constants": (True, _choice(True)), "nu0": (1.0, POSITIVE)},
            "gamma", {"from_constants": (False, _choice(False)), "nu0": (1.0, POSITIVE),
                      "gamma": (REQUIRED, POSITIVE), "gamma_prime": (REQUIRED, POSITIVE),
                      "mass": (REQUIRED, POSITIVE)})),
        shells=({}, _object({
            "n_shells": (96, _int(2)),
            "directions": ("axes", _check(
                lambda v: v == "axes" or (_number(v, int) and v >= 1)
                or (isinstance(v, list) and v and all(_point(d, nonzero=True) for d in v)),
                '"axes", a count >= 1 or a list of nonzero 3-vectors')),
            "coverage": (0.999, _check(lambda v: _number(v) and 0 < v < 1,
                                       "a number in (0, 1)", float))})),
        quadrature=({}, _object({
            "omega_max": (lambda cfg: 50.0 * cfg["oscillator"]["nu0"], POSITIVE),
            "base_panels": (24, _int(1)), "window_scale": (50.0, POSITIVE)}))),
    "figure1": dict(level=(12, _int(0)), alpha=(5.0, POSITIVE),
                    amplitude=(1.0, _check(lambda v: _number(v) and dists.normal_square(v),
                                           "a number in about [1.5e-154, 1.3e154], so that "
                                           "its square is a finite normal double", float)),
                    points=(487, _int(2))),
    "generating": dict(
        constants=SAMPLING["constants"], grid=_grid(4.0 * np.pi, 1.5),
        direction=([0.0, 0.0, 1.0], DIRECTION), s_points=(101, _int(2)),
        density_factors=([1.0, 4.0, 16.0], _list(POSITIVE))),
}.items()}

# flag -> argparse options; a subcommand has the flags its spec has fields for
FLAGS = {"seed": {"type": int, "help": "RNG seed (mandatory, no default)"},
         "out": {"help": "output directory"},
         "kind": {"choices": ["boyer", "modified"], "help": "field kind"},
         "samples": {"type": int, "help": "Monte Carlo sample count"}}


# ------------------------------------------------------------ configuration

def resolve(args) -> dict:
    """args.command's config: --config, then the flags, through its spec."""
    given = {}
    if args.config:
        try:
            given = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
    given.update((k, v) for k, v in vars(args).items() if k in FLAGS and v is not None)
    return _resolve(SPECS[args.command], given)


def _resolve(spec, given, prefix="", root=None) -> dict:
    out = {}
    root = out if root is None else root
    for key in given:
        if key not in spec:
            hint = difflib.get_close_matches(key, spec, n=1)
            raise ConfigError(f"unknown config field {prefix + key!r}"
                              + (f" (did you mean {prefix + hint[0]!r}?)" if hint else ""))
    for key, (default, parse) in spec.items():
        if key not in given and default is REQUIRED:
            raise ConfigError(f"missing required field {prefix + key!r}")
        value = given[key] if key in given else default(root) if callable(default) else default
        out[key] = parse(value, prefix + key, root)
    return out


def _mode_grid(spec, constants) -> ModeGrid:
    if "kvectors" in spec:
        return grid_from_kvectors(spec["kvectors"], spec["volume"], constants,
                                  polarizations=spec["polarizations"])
    return build_grid(spec["box_side"], spec["omega_cutoff"], constants)


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(cfg, out: Path, summary: dict, as_json: bool) -> int:
    (out / "manifest.json").write_text(json.dumps(cfg, indent=1))
    (out / "report.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary) if as_json
          else "\n".join(f"{key}: {value}" for key, value in summary.items()))
    return 0


# ---------------------------------------------------------------- commands

def cmd_sample_mode(cfg, as_json: bool) -> int:
    grid = _mode_grid(cfg["grid"], PhysicalConstants(**cfg["constants"]))
    mode_index = cfg["mode_index"]
    _check(lambda i: i < len(grid), f"< {len(grid)}, the mode count")(mode_index, "mode_index")
    out = _outdir(cfg)
    batch = fields.sample_mode_batch(
        cfg["kind"], grid, mode_index, cfg["r"], cfg["t"], cfg["samples"], cfg["seed"])
    batch.to_csv(out / "samples.csv")
    sigma = float(grid.sigma[mode_index])
    rep = stats.moments(batch.values)
    ks_gauss = stats.ks_test(batch.values, GaussianMode(sigma).cdf, alpha=0.01)
    ks_arcs = stats.ks_test(batch.values, Arcsine(np.sqrt(2.0) * sigma).cdf, alpha=0.01)
    summary = {
        "kind": cfg["kind"], "mode_index": mode_index, "sigma": sigma,
        "moments": rep.to_dict(), "ks_gaussian": ks_gauss.to_dict(),
        "ks_arcsine": ks_arcs.to_dict(), "files": ["samples.csv"],
    }
    return _finish(cfg, out, summary, as_json)


def cmd_total_field(cfg, as_json: bool) -> int:
    grid = _mode_grid(cfg["grid"], PhysicalConstants(**cfg["constants"]))
    component = unit_vector(cfg["component"])
    out = _outdir(cfg)
    batch = fields.sample_field_batch(
        cfg["kind"], grid, cfg["r"], cfg["t"], cfg["samples"], cfg["seed"])
    values = batch.values @ component
    sigma_comp = float(np.sqrt(grid.component_variance(component)))
    rep = stats.moments(values)
    ks = stats.ks_test(values, GaussianMode(sigma_comp).cdf, alpha=0.01)
    span = 5.0 * sigma_comp
    edges, dens = stats.histogram(values, cfg["bins"], (-span, span))
    stats.write_csv(out / "histogram.csv", "histogram", ("bin_left", "bin_right", "density"),
                    np.column_stack([edges[:-1], edges[1:], dens]),
                    {"kind": cfg["kind"], "component": component.tolist()})
    summary = {
        "kind": cfg["kind"], "n_modes": len(grid), "sigma_component": sigma_comp,
        "moments": rep.to_dict(), "ks_gaussian": ks.to_dict(), "files": ["histogram.csv"],
    }
    return _finish(cfg, out, summary, as_json)


def cmd_oscillator(cfg, as_json: bool) -> int:
    constants = PhysicalConstants(**cfg["constants"])
    osc = cfg["oscillator"]
    params = (OscillatorParams.from_constants(osc["nu0"], constants) if osc["from_constants"]
              else OscillatorParams(osc["nu0"], osc["gamma"], osc["gamma_prime"], osc["mass"]))
    if not params.resonance_ok:
        print(f"warning: Gamma*nu0 = {params.resonance_parameter:.3g} exceeds "
              f"{oscillator.RESONANCE_WARN:g}; the resonance approximation is degraded",
              file=sys.stderr)
    shells = cfg["shells"]
    grid = oscillator.resonance_shell_grid(
        params, constants, n_shells=shells["n_shells"],
        directions=None if shells["directions"] == "axes" else shells["directions"],
        coverage=shells["coverage"])
    out = _outdir(cfg)
    ens = oscillator.coordinate_ensemble(
        cfg["kind"], grid, params, cfg["t"], cfg["samples"], cfg["seed"])
    ens.to_csv(out / "coordinates.csv")
    grid_var = [oscillator.coordinate_axis_variance(grid, params, a) for a in np.eye(3)]
    axis_moments = [stats.moments(ens.values[:, i]) for i in range(3)]
    emp_var = [rep.variance for rep in axis_moments]
    ks_axes = [
        stats.ks_test(ens.values[:, i], GaussianMode(np.sqrt(grid_var[i])).cdf, alpha=0.01)
        for i in range(3)
    ]
    quad_value, closed = oscillator.resonance_integral(params, **cfg["quadrature"])
    summary = {
        "kind": cfg["kind"], "n_modes": len(grid),
        "params": ens.meta["params"],
        "predicted_variance": oscillator.predicted_variance(params, constants),
        "grid_variance_per_axis": grid_var,
        "empirical_variance_per_axis": emp_var,
        "moments_per_axis": [rep.to_dict() for rep in axis_moments],
        "ks_gaussian_per_axis": [k.to_dict() for k in ks_axes],
        "bohr_radius_sq_predicted": oscillator.bohr_radius_sq(params, constants),
        "bohr_radius_sq_empirical": float(np.mean(np.sum(ens.values[:, :2] ** 2, axis=1))),
        "resonance_integral": {"quadrature": quad_value, "closed_form": closed},
        "files": ["coordinates.csv"],
    }
    return _finish(cfg, out, summary, as_json)


def cmd_figure1(cfg, as_json: bool) -> int:
    level, alpha, amplitude = cfg["level"], cfg["alpha"], cfg["amplitude"]
    _check(lambda n: n <= dists.HERMITE_MAX_LEVEL,
           f"<= {dists.HERMITE_MAX_LEVEL}, the Hermite recurrence's cap")(level, "level")
    out = _outdir(cfg)
    x_cl = np.linspace(-1.2 * amplitude, 1.2 * amplitude, cfg["points"])
    stats.write_csv(out / "classical_pdf.csv", "classical oscillator pdf", ("x", "pdf"),
                    np.column_stack([x_cl, classical_oscillator_pdf(x_cl, amplitude)]),
                    {"amplitude": amplitude})
    stats.write_csv(out / f"quantum_pdf_n{level}.csv", "quantum oscillator pdf", ("x", "pdf"),
                    np.column_stack([x_cl, quantum_oscillator_pdf(level, x_cl, alpha)]),
                    {"level": level, "alpha": alpha})
    x_g = np.linspace(-4.0, 4.0, cfg["points"])
    stats.write_csv(out / "ground_state_pdf.csv", "quantum oscillator pdf", ("x", "pdf"),
                    np.column_stack([x_g, quantum_oscillator_pdf(0, x_g, 1.0)]),
                    {"alpha": 1.0})
    wave = hermite_function(level, alpha * x_cl)
    zeros = int(np.sum(np.sign(wave[1:]) * np.sign(wave[:-1]) < 0))
    summary = {
        "level": level, "alpha": alpha, "amplitude": amplitude,
        "interior_zeros": zeros,
        "classical_pdf_at_0": float(classical_oscillator_pdf(0.0, amplitude)),
        "files": ["classical_pdf.csv", f"quantum_pdf_n{level}.csv", "ground_state_pdf.csv"],
    }
    return _finish(cfg, out, summary, as_json)


def cmd_generating(cfg, as_json: bool) -> int:
    constants = PhysicalConstants(**cfg["constants"])
    direction = np.asarray(cfg["direction"])
    spec = cfg["grid"]
    if "kvectors" in spec:
        grids, labels = [_mode_grid(spec, constants)], ["custom"]
        cutoff = grids[0].omega_cutoff
    else:
        cutoff = spec["omega_cutoff"]
        # mode density scales with volume: factor f multiplies L^3
        grids = [build_grid(spec["box_side"] * f ** (1.0 / 3.0), cutoff, constants)
                 for f in cfg["density_factors"]]
        labels = [f"density_{i}" for i in range(len(grids))]
    out = _outdir(cfg)
    sigma_e = total_field_sigma(cutoff, constants)
    s = np.linspace(0.0, 5.0 / sigma_e, cfg["s_points"])
    rows, files = [], []
    for label, grid in zip(labels, grids):
        gb = boyer_generating(s, direction, grid)
        g_lat = gaussian_generating(s, np.sqrt(grid.component_variance(direction)))
        g_cont = gaussian_generating(s, sigma_e)
        dev = np.abs(gb - g_lat)
        name = f"generating_{label}.csv"
        stats.write_csv(out / name, "generating function",
                        ("s", "bessel_product", "gaussian_lattice", "gaussian_continuum",
                         "deviation"),
                        np.column_stack([s, gb, g_lat, g_cont, dev]),
                        {"n_modes": len(grid), "direction": direction.tolist()})
        files.append(name)
        rows.append({"label": label, "n_modes": len(grid),
                     "max_deviation": float(np.max(dev)),
                     "max_deviation_continuum": float(np.max(np.abs(gb - g_cont)))})
    summary = {"sigma_e": sigma_e, "sweep": rows, "files": files}
    if len(rows) > 1:
        summary["deviation_ratios"] = [
            rows[i]["max_deviation"] / rows[i + 1]["max_deviation"]
            for i in range(len(rows) - 1)
        ]
    return _finish(cfg, out, summary, as_json)


# -------------------------------------------------------------- entry point

COMMANDS = {
    "sample-mode": cmd_sample_mode,
    "total-field": cmd_total_field,
    "oscillator": cmd_oscillator,
    "figure1": cmd_figure1,
    "generating": cmd_generating,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpfsim",
        description="Monte Carlo experiments on classical zero-point field analogues",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for flag in (flag for flag in FLAGS if flag in SPECS[name]):
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print machine-readable summary to stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # a usage error exits 1, not argparse's 2; --help 0
        return 1 if exc.code else 0
    try:
        cfg = resolve(args)
        return COMMANDS[args.command](cfg, args.as_json)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, InsufficientRangeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
