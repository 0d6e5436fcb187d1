"""Command-line driver: every experiment as a deterministic, seeded run.

Subcommands
    sample-mode   single-mode amplitude samples + KS reports
    total-field   one component of the summed field + histogram + KS
    oscillator    driven-oscillator coordinate ensemble + variance report
    figure1       classical / quantum oscillator density curves as CSV
    generating    Bessel-product vs Gaussian generating-function sweep

Every run requires an explicit seed (no wall-clock default), writes a
manifest.json with the fully resolved configuration (re-ingestable via
--config), and emits CSV with 17 significant digits so downstream diffs
are exact. Exit codes: 0 success, 1 validation error, 2 numerical
convergence error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

import numpy as np

from . import fields, oscillator, stats
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

SQRT2 = float(np.sqrt(2.0))

# every top-level config key some subcommand reads; any other key is a typo
CONFIG_KEYS = (
    "command", "seed", "out", "kind", "samples", "constants", "r", "t", "grid",
    "mode_index", "component", "bins", "oscillator", "shells", "quadrature",
    "level", "alpha", "amplitude", "points", "direction", "s_points", "density_factors",
)


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------ configuration

def load_config(args, command: str) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key in cfg:
            if key not in CONFIG_KEYS:
                hint = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
                raise ConfigError(f"unknown config field {key!r}"
                                  + (f" (did you mean {hint[0]!r}?)" if hint else ""))
    # flag overrides
    for name in ("seed", "out", "kind", "samples"):
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    cfg["command"] = command

    if "seed" not in cfg:
        raise ConfigError("missing required field 'seed' (pass --seed or set it in the config)")
    try:
        cfg["seed"] = int(cfg["seed"])
    except (TypeError, ValueError):
        raise ConfigError(f"field 'seed' must be an integer, got {cfg['seed']!r}")
    if cfg["seed"] < 0:
        raise ConfigError("field 'seed' must be non-negative")

    cfg.setdefault("out", "zpfsim-out")
    cfg.setdefault("kind", "modified")
    if cfg["kind"] not in ("boyer", "modified"):
        raise ConfigError(f"field 'kind' must be 'boyer' or 'modified', got {cfg['kind']!r}")
    # every sampling subcommand runs a KS test, which needs 10 samples
    _count(cfg, "samples", 10000, minimum=10)
    cfg.setdefault("constants", PhysicalConstants().to_dict())
    cfg.setdefault("r", [0.0, 0.0, 0.0])
    cfg.setdefault("t", 0.0)
    if not _finite_real(cfg["t"]):
        raise ConfigError(f"field 't' must be a finite real number, got {cfg['t']!r}")
    r = cfg["r"]
    if not (isinstance(r, (list, tuple)) and len(r) == 3 and all(map(_finite_real, r))):
        raise ConfigError(f"field 'r' must be three finite real numbers, got {r!r}")
    return cfg


def _count(cfg, key: str, default: int, minimum: int) -> int:
    """The config's integer field, stored back as an int, at least minimum."""
    value = cfg.setdefault(key, default)
    try:
        cfg[key] = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}") from None
    if cfg[key] < minimum:
        raise ConfigError(f"field {key!r} must be >= {minimum}, got {cfg[key]}")
    return cfg[key]


def _finite_real(value) -> bool:
    """A JSON number that converts to a finite double (not nan, inf or huge)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _constants(cfg) -> PhysicalConstants:
    try:
        return PhysicalConstants.from_dict(cfg["constants"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'constants' is invalid: {exc}") from exc


def _direction(cfg, key: str, default) -> np.ndarray:
    """The config's direction field as given, after checking that it can
    be normalized."""
    value = cfg.setdefault(key, default)
    try:
        unit_vector(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r} is invalid: {exc}") from exc
    return np.asarray(value, dtype=float)


def _grid(cfg, constants) -> ModeGrid:
    spec = cfg.setdefault("grid", {"box_side": 2.0 * np.pi, "omega_cutoff": 2.5})
    if "kvectors" in spec:
        if "volume" not in spec:
            raise ConfigError("custom grid needs field 'grid.volume'")
        return grid_from_kvectors(
            spec["kvectors"], float(spec["volume"]), constants,
            polarizations=tuple(spec.get("polarizations", (1, 2))),
        )
    for key in ("box_side", "omega_cutoff"):
        if key not in spec:
            raise ConfigError(f"lattice grid needs field 'grid.{key}'")
    return build_grid(float(spec["box_side"]), float(spec["omega_cutoff"]), constants)


def _oscillator_params(cfg, constants) -> OscillatorParams:
    spec = cfg.setdefault("oscillator", {"nu0": 1.0, "from_constants": True})
    if "nu0" not in spec:
        raise ConfigError("oscillator config needs field 'oscillator.nu0'")
    if spec.get("from_constants", False):
        return OscillatorParams.from_constants(float(spec["nu0"]), constants)
    for key in ("gamma", "gamma_prime", "mass"):
        if key not in spec:
            raise ConfigError(
                f"oscillator config needs field 'oscillator.{key}' (or from_constants: true)")
    return OscillatorParams(
        nu0=float(spec["nu0"]), gamma=float(spec["gamma"]),
        gamma_prime=float(spec["gamma_prime"]), mass=float(spec["mass"]),
    )


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(cfg, out: Path, summary: dict, as_json: bool) -> int:
    (out / "manifest.json").write_text(json.dumps(cfg, indent=1))
    with (out / "report.json").open("w") as fh:
        json.dump(summary, fh, indent=1)
    if as_json:
        print(json.dumps(summary))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------- commands

def cmd_sample_mode(cfg, as_json: bool) -> int:
    constants = _constants(cfg)
    grid = _grid(cfg, constants)
    mode_index = int(cfg.setdefault("mode_index", 0))
    out = _outdir(cfg)
    batch = fields.sample_mode_batch(
        cfg["kind"], grid, mode_index, cfg["r"], cfg["t"], cfg["samples"], cfg["seed"])
    batch.to_csv(out / "samples.csv")
    sigma = float(grid.sigma[mode_index])
    rep = stats.moments(batch.values)
    ks_gauss = stats.ks_test(batch.values, GaussianMode(sigma).cdf, alpha=0.01)
    ks_arcs = stats.ks_test(batch.values, Arcsine(SQRT2 * sigma).cdf, alpha=0.01)
    summary = {
        "kind": cfg["kind"], "mode_index": mode_index, "sigma": sigma,
        "moments": rep.to_dict(),
        "ks_gaussian": ks_gauss.to_dict(),
        "ks_arcsine": ks_arcs.to_dict(),
        "files": ["samples.csv"],
    }
    return _finish(cfg, out, summary, as_json)


def cmd_total_field(cfg, as_json: bool) -> int:
    constants = _constants(cfg)
    grid = _grid(cfg, constants)
    component = unit_vector(_direction(cfg, "component", [1.0, 0.0, 0.0]))
    bins = int(cfg.setdefault("bins", 60))
    out = _outdir(cfg)
    batch = fields.sample_field_batch(
        cfg["kind"], grid, cfg["r"], cfg["t"], cfg["samples"], cfg["seed"])
    values = batch.values @ component
    sigma_comp = float(np.sqrt(grid.component_variance(component)))
    rep = stats.moments(values)
    ks = stats.ks_test(values, GaussianMode(sigma_comp).cdf, alpha=0.01)
    span = 5.0 * sigma_comp
    edges, dens = stats.histogram(values, bins, (-span, span))
    stats.write_csv(out / "histogram.csv", "histogram", ("bin_left", "bin_right", "density"),
                    np.column_stack([edges[:-1], edges[1:], dens]),
                    {"kind": cfg["kind"], "component": component.tolist()})
    summary = {
        "kind": cfg["kind"], "n_modes": len(grid),
        "sigma_component": sigma_comp,
        "moments": rep.to_dict(),
        "ks_gaussian": ks.to_dict(),
        "files": ["histogram.csv"],
    }
    return _finish(cfg, out, summary, as_json)


def cmd_oscillator(cfg, as_json: bool) -> int:
    constants = _constants(cfg)
    params = _oscillator_params(cfg, constants)
    if not params.resonance_ok:
        print(
            f"warning: Gamma*nu0 = {params.resonance_parameter:.3g} exceeds "
            f"{oscillator.RESONANCE_WARN:g}; the resonance approximation is degraded",
            file=sys.stderr)
    shells = cfg.setdefault("shells", {"n_shells": 96, "directions": "axes",
                                       "coverage": 0.999})
    directions = shells.get("directions", "axes")
    if directions == "axes":
        directions = None
    grid = oscillator.resonance_shell_grid(
        params, constants, n_shells=int(shells.get("n_shells", 96)),
        directions=directions, coverage=float(shells.get("coverage", 0.999)))
    out = _outdir(cfg)
    ens = oscillator.coordinate_ensemble(
        cfg["kind"], grid, params, cfg["t"], cfg["samples"], cfg["seed"])
    ens.to_csv(out / "coordinates.csv")

    axes = np.eye(3)
    grid_var = [oscillator.coordinate_axis_variance(grid, params, a) for a in axes]
    axis_moments = [stats.moments(ens.values[:, i]) for i in range(3)]
    emp_var = [rep.variance for rep in axis_moments]
    ks_axes = [
        stats.ks_test(ens.values[:, i], GaussianMode(np.sqrt(grid_var[i])).cdf, alpha=0.01)
        for i in range(3)
    ]
    quad_spec = cfg.setdefault("quadrature", {})
    quad_value, closed = oscillator.resonance_integral(
        params,
        omega_max=float(quad_spec.get("omega_max", 50.0 * params.nu0)),
        base_panels=int(quad_spec.get("base_panels", 24)),
        window_scale=float(quad_spec.get("window_scale", 50.0)),
    )
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
    level = int(cfg.setdefault("level", 12))
    alpha = float(cfg.setdefault("alpha", 5.0))
    amplitude = float(cfg.setdefault("amplitude", 1.0))
    points = int(cfg.setdefault("points", 487))
    out = _outdir(cfg)

    x_cl = np.linspace(-1.2 * amplitude, 1.2 * amplitude, points)
    stats.write_csv(out / "classical_pdf.csv", "classical oscillator pdf", ("x", "pdf"),
                    np.column_stack([x_cl, classical_oscillator_pdf(x_cl, amplitude)]),
                    {"amplitude": amplitude})
    stats.write_csv(out / f"quantum_pdf_n{level}.csv", "quantum oscillator pdf", ("x", "pdf"),
                    np.column_stack([x_cl, quantum_oscillator_pdf(level, x_cl, alpha)]),
                    {"level": level, "alpha": alpha})
    x_g = np.linspace(-4.0, 4.0, points)
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
    constants = _constants(cfg)
    direction = _direction(cfg, "direction", [0.0, 0.0, 1.0])
    s_points = _count(cfg, "s_points", 101, minimum=1)
    out = _outdir(cfg)

    spec = cfg.get("grid", {})
    if "kvectors" in spec:
        grids = [_grid(cfg, constants)]
        labels = ["custom"]
        cutoff = grids[0].omega_cutoff
    else:
        cutoff = float(spec.get("omega_cutoff", 1.5))
        base = float(spec.get("box_side", 4.0 * np.pi))
        sweep = cfg.setdefault("density_factors", [1.0, 4.0, 16.0])
        # mode density scales with volume: factor f multiplies L^3
        grids = [build_grid(base * f ** (1.0 / 3.0), cutoff, constants) for f in sweep]
        labels = [f"density_{i}" for i in range(len(grids))]

    sigma_e = total_field_sigma(cutoff, constants)
    s = np.linspace(0.0, 5.0 / sigma_e, s_points)

    rows = []
    files = []
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
        p.add_argument("--seed", type=int, help="RNG seed (mandatory, no default)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--kind", choices=["boyer", "modified"], help="field kind")
        p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print machine-readable summary to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args, args.command)
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


if __name__ == "__main__":
    sys.exit(main())
