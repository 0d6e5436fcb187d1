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

Every run requires an explicit seed (no wall-clock default). An unknown
config key, top-level or nested, or a bad value exits 1 naming the field;
a failed setup step (a grid, the oscillator's parameters or shell grid)
exits 1 naming every field it read (_reading), an allocation too large for
memory names the count that sized it, and a failed computed default the
fields it came from. Only a run that succeeds writes: its resolved config
as manifest.json (re-ingestable via --config), report.json and CSV with
17 significant digits. Exit codes: 0 success, 1 usage or validation
error or a run too large for memory, 2 numerical error (an arithmetic
failure, a quadrature or inversion that fails, or a nan or inf in the
report), which may name no field.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import reduce
from pathlib import Path

import numpy as np

from . import dists, fields, oscillator, stats
from .constants import PhysicalConstants
from .dists import (
    Arcsine,
    FiniteLaw,
    GaussianMode,
    InsufficientRangeError,
    hermite_function,
    quantum_oscillator_pdf,
    total_field_sigma,
)
from .lattice import ModeGrid, build_grid, grid_from_kvectors, unit_vector, vector_lengths
from .oscillator import ConvergenceError, OscillatorParams


# ------------------------------------------------------------ field specs
# A spec maps each field to (default, parser). A Derived default is
# rule(*values) of its dotted fields of the root config, resolved before it;
# a value the parser refuses names those fields, not the unset one. A parser
# takes (value, dotted field name, root) and returns the value to use.
REQUIRED = object()
Derived = namedtuple("Derived", "rule fields")


def _check(ok, what, convert=None):
    """A parser of the values ok accepts; its errors name the field."""
    def parse(value, name, root=None):
        if not ok(value):
            raise ValueError(f"field {name!r} must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


def _number(v, kind=(int, float)) -> bool:   # no bool, nan, inf or huge int
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _dir_path(v) -> bool:   # a directory, or a path mkdir can make one
    path = Path(v)
    return next(p for p in (path, *path.parents) if p.is_symlink() or p.exists()).is_dir()


def _point(v, nonzero=False) -> bool:   # nonzero: can be normalized
    if not (isinstance(v, list) and len(v) == 3 and all(map(_number, v))):
        return False
    try:
        return not nonzero or vector_lengths(v, "point") > 0.0
    except ValueError:
        return False


def _count(v, minimum) -> bool:   # at most 2**53, so that np.linspace rounds no count
    return _number(v, int) and minimum <= v <= 2**53


def _int(minimum):
    return _check(lambda v: _count(v, minimum), f"an integer in [{minimum}, 2**53]")


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


SEED = _check(lambda v: _number(v, int) and v >= 0, "an integer >= 0")   # any size: no count cap
REAL = _check(_number, "a finite real number", float)
POSITIVE = _check(lambda v: _number(v) and v > 0, "a finite real number > 0", float)
POINT = _check(_point, "three finite real numbers", lambda v: list(map(float, v)))
DIRECTION = _check(lambda v: _point(v, nonzero=True),
                   "three finite real numbers whose squared length is a finite nonzero double",
                   lambda v: list(map(float, v)))
SIGMA_K = ("constants.hbar", "constants.eps0", "constants.c")   # read by omega and sigma_k
SAMPLING = dict(
    kind=("modified", _choice("boyer", "modified")),
    samples=(10000, _int(10)),   # every sampling subcommand runs a KS test
    # kept as given: report.json echoes an int electron_mass as an int
    constants=({}, _object({name: (value, _check(lambda v: _number(v) and v > 0,
                                                "a finite real number > 0"))
                           for name, value in PhysicalConstants().to_dict().items()})),
    # the stream layout that maps a seed to samples (README "Reproducibility"):
    # a version stamp, not an option; a manifest of another layout is refused
    rng_layout=(2, _choice(2)))
FIELD = dict(SAMPLING, r=([0.0, 0.0, 0.0], POINT), t=(0.0, REAL), grid=_grid(2.0 * np.pi, 2.5))

SPECS = {command: {"command": (command, _choice(command)), "seed": (REQUIRED, SEED),
                   "out": ("zpfsim-out", _check(
                       lambda v: isinstance(v, str) and v and _dir_path(v),
                       "a non-empty path to a directory, not to or under a file")), **spec}
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
                lambda v: v == "axes" or _count(v, 1)
                or (isinstance(v, list) and v and all(_point(d, nonzero=True) for d in v)),
                '"axes", a count in [1, 2**53] or a list of nonzero 3-vectors')),
            "coverage": (0.999, _check(lambda v: _number(v) and 0 < v < 1,
                                       "a number in (0, 1)", float))})),
        quadrature=({}, _object({
            "omega_max": (Derived(lambda nu0: 50.0 * nu0, ("oscillator.nu0",)), POSITIVE)}))),
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
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(given, dict):
            raise ValueError("config file must hold a JSON object")
    given.update((k, v) for k, v in vars(args).items() if k in FLAGS and v is not None)
    return _resolve(SPECS[args.command], given)


def _resolve(spec, given, prefix="", root=None) -> dict:
    out = {}
    root = out if root is None else root
    for key in given:
        if key not in spec:
            hint = difflib.get_close_matches(key, spec, n=1)
            raise ValueError(f"unknown config field {prefix + key!r}"
                              + (f" (did you mean {prefix + hint[0]!r}?)" if hint else ""))
    for key, (default, parse) in spec.items():
        if key not in given and default is REQUIRED:
            raise ValueError(f"missing required field {prefix + key!r}")
        if key not in given and isinstance(default, Derived):
            with _reading(*default.fields):
                values = [reduce(dict.__getitem__, f.split("."), root) for f in default.fields]
                out[key] = parse(default.rule(*values), prefix + key, root)
        else:
            out[key] = parse(given.get(key, default), prefix + key, root)
    return out


@contextmanager
def _reading(*fields, errors=(ValueError, MemoryError)):
    """A step that reads these dotted config fields: one of these errors raised
    in it exits 1 naming every one of them. A step sized by a count blames it
    for a MemoryError alone, so a ValueError keeps the fields it names."""
    try:
        yield
    except errors as exc:
        error = MemoryError if isinstance(exc, MemoryError) else ValueError
        raise error(f"fields {', '.join(map(repr, dict.fromkeys(fields)))} give: {exc}") from exc


def _mode_grid(cfg, factor=None) -> ModeGrid:
    """The setup step of cfg's custom grid, or of its lattice with the volume
    times density_factors[factor]; every mode scale sigma_k finite and > 0."""
    spec, constants = cfg["grid"], PhysicalConstants(**cfg["constants"])
    density = [] if factor is None else [f"density_factors[{factor}]"]
    with _reading(*(f"grid.{key}" for key in spec), *SIGMA_K, *density):
        if "kvectors" in spec:
            grid = grid_from_kvectors(spec["kvectors"], spec["volume"], constants,
                                      polarizations=spec["polarizations"])
        else:   # mode density scales with volume: factor f multiplies L^3
            scale = 1.0 if factor is None else cfg["density_factors"][factor] ** (1.0 / 3.0)
            grid = build_grid(spec["box_side"] * scale, spec["omega_cutoff"], constants)
        if not np.all((grid.sigma > 0.0) & (grid.sigma < np.inf)):
            raise ValueError("a mode scale sqrt(hbar*omega / (2*eps0*V)) outside (0, inf)")
    return grid


def _fit(values, **laws):
    """values' moments and a KS test at alpha = 0.01 against each named law;
    the KS tests share one sorted copy of the values."""
    ordered = np.sort(values)
    return {"moments": stats.moments(values).to_dict(),
            **{f"ks_{name}": stats.ks_test(ordered, law.cdf, alpha=0.01).to_dict()
               for name, law in laws.items()}}


def _csv(title, names, columns, meta):
    """A call that writes these columns to a path through stats.write_csv."""
    return lambda path: stats.write_csv(path, title, names, np.column_stack(columns), meta)


# ---------------------------------------------------------------- commands

def cmd_sample_mode(cfg):
    grid = _mode_grid(cfg)
    mode_index = cfg["mode_index"]
    _check(lambda i: i < len(grid), f"< {len(grid)}, the mode count")(mode_index, "mode_index")
    with _reading("samples", errors=MemoryError):
        batch = fields.sample_mode_batch(
            cfg["kind"], grid, mode_index, cfg["r"], cfg["t"], cfg["samples"], cfg["seed"])
    sigma = float(grid.sigma[mode_index])
    summary = {"kind": cfg["kind"], "mode_index": mode_index, "sigma": sigma,
               **_fit(batch.values, gaussian=GaussianMode(sigma),
                      arcsine=Arcsine(np.sqrt(2.0) * sigma))}
    return summary, {"samples.csv": batch.to_csv}


def cmd_total_field(cfg):
    grid = _mode_grid(cfg)
    component = unit_vector(cfg["component"])
    sigma_comp = float(np.sqrt(FiniteLaw.of("modified", grid, component).variance))
    _check(lambda c: sigma_comp > 0, "a direction in which the grid's field varies")(
        cfg["component"], "component")
    with _reading("samples", errors=MemoryError):
        batch = fields.sample_field_batch(
            cfg["kind"], grid, cfg["r"], cfg["t"], cfg["samples"], cfg["seed"])
    values = np.ascontiguousarray(batch.values) @ component   # same bits as a C-order @
    span = 5.0 * sigma_comp
    with _reading("bins", errors=MemoryError):
        edges, dens = stats.histogram(values, cfg["bins"], (-span, span))
    summary = {"kind": cfg["kind"], "n_modes": len(grid), "sigma_component": sigma_comp,
               **_fit(values, gaussian=GaussianMode(sigma_comp))}
    return summary, {"histogram.csv": _csv(
        "histogram", ("bin_left", "bin_right", "density"), [edges[:-1], edges[1:], dens],
        {"kind": cfg["kind"], "component": component.tolist()})}


def cmd_oscillator(cfg):
    constants = PhysicalConstants(**cfg["constants"])
    osc, shells, omega_max = cfg["oscillator"], cfg["shells"], cfg["quadrature"]["omega_max"]
    read = [f"oscillator.{key}" for key in osc if key != "from_constants"]
    if osc["from_constants"]:
        read += [f"constants.{key}" for key in ("electron_charge", "eps0", "electron_mass", "c")]
    with _reading(*read):
        params = (OscillatorParams.from_constants(osc["nu0"], constants) if osc["from_constants"]
                  else OscillatorParams(osc["nu0"], osc["gamma"], osc["gamma_prime"], osc["mass"]))
    if not params.resonance_ok:
        print(f"warning: Gamma*nu0 = {params.resonance_parameter:.3g} exceeds "
              f"{oscillator.RESONANCE_WARN:g}; the resonance approximation is degraded",
              file=sys.stderr)
    if omega_max < oscillator.CUTOFF_WARN * params.nu0:
        print(f"warning: omega_max = {omega_max:g} is below {oscillator.CUTOFF_WARN:g}*nu0; "
              "the comparison with the resonance closed form is degraded", file=sys.stderr)
    with _reading(*read, *SIGMA_K, *(f"shells.{key}" for key in shells)):
        grid = oscillator.resonance_shell_grid(
            params, constants, n_shells=shells["n_shells"],
            directions=None if shells["directions"] == "axes" else shells["directions"],
            coverage=shells["coverage"])
        h = oscillator.transfer(grid.omega, params)
        grid_var = [FiniteLaw.of("modified", grid, a, h.real, h.imag).variance for a in np.eye(3)]
        if not min(grid_var) > 0:
            raise ValueError("an axis that no mode drives, a coordinate variance of 0")
    oscillator._response(grid, params, cfg["t"])   # a bad 't' exits 1 before the quadrature
    # the quadrature can fail (exit 2): run it before the costly sampling
    quad_value, closed = oscillator.resonance_integral(params, omega_max)
    with _reading("samples", errors=MemoryError):
        ens = oscillator.coordinate_ensemble(
            cfg["kind"], grid, params, cfg["t"], cfg["samples"], cfg["seed"])
    fits = [_fit(ens.values[:, i], gaussian=GaussianMode(np.sqrt(grid_var[i])))
            for i in range(3)]
    summary = {
        "kind": cfg["kind"], "n_modes": len(grid),
        "params": ens.meta["params"],
        "predicted_variance": oscillator.predicted_variance(params, constants),
        "grid_variance_per_axis": grid_var,
        "empirical_variance_per_axis": [fit["moments"]["variance"] for fit in fits],
        "moments_per_axis": [fit["moments"] for fit in fits],
        "ks_gaussian_per_axis": [fit["ks_gaussian"] for fit in fits],
        "bohr_radius_sq_predicted": oscillator.bohr_radius_sq(params, constants),
        "bohr_radius_sq_empirical": float(np.mean(np.sum(ens.values[:, :2] ** 2, axis=1))),
        "resonance_integral": {"quadrature": quad_value, "closed_form": closed},
    }
    return summary, {"coordinates.csv": ens.to_csv}


def cmd_figure1(cfg):
    level, alpha, amplitude = cfg["level"], cfg["alpha"], cfg["amplitude"]
    _check(lambda n: n <= dists.HERMITE_MAX_LEVEL,
           f"<= {dists.HERMITE_MAX_LEVEL}, the Hermite recurrence's cap")(level, "level")
    with _reading("points", errors=MemoryError):
        x_cl = np.linspace(-1.2 * amplitude, 1.2 * amplitude, cfg["points"])
        x_g = np.linspace(-4.0, 4.0, cfg["points"])
    wave = hermite_function(level, alpha * x_cl)
    zeros = int(np.sum(np.sign(wave[1:]) * np.sign(wave[:-1]) < 0))
    classical = Arcsine(amplitude).pdf
    summary = {
        "level": level, "alpha": alpha, "amplitude": amplitude,
        "interior_zeros": zeros,
        "classical_pdf_at_0": float(classical(0.0)),
    }
    return summary, {
        "classical_pdf.csv": _csv("classical oscillator pdf", ("x", "pdf"),
                                  [x_cl, classical(x_cl)],
                                  {"amplitude": amplitude}),
        f"quantum_pdf_n{level}.csv": _csv("quantum oscillator pdf", ("x", "pdf"),
                                          [x_cl, quantum_oscillator_pdf(level, x_cl, alpha)],
                                          {"level": level, "alpha": alpha}),
        "ground_state_pdf.csv": _csv("quantum oscillator pdf", ("x", "pdf"),
                                     [x_g, quantum_oscillator_pdf(0, x_g, 1.0)],
                                     {"alpha": 1.0}),
    }


def cmd_generating(cfg):
    constants = PhysicalConstants(**cfg["constants"])
    direction = np.asarray(cfg["direction"])
    if "kvectors" in cfg["grid"]:
        default = SPECS["generating"]["density_factors"][0]   # lattice grids only
        _check(lambda f: f == default, f"{default} with a custom grid")(cfg["density_factors"],
                                                                        "density_factors")
        grids, labels = [_mode_grid(cfg)], ["custom"]
    else:
        grids = [_mode_grid(cfg, i) for i in range(len(cfg["density_factors"]))]
        labels = [f"density_{i}" for i in range(len(grids))]
    variances = [FiniteLaw.of("modified", grid, direction).variance for grid in grids]
    _check(lambda d: min(variances) > 0, "a direction in which the grid's field varies")(
        cfg["direction"], "direction")
    sigma_e = total_field_sigma(grids[0].omega_cutoff, constants)
    with _reading("s_points", errors=MemoryError):
        s = np.linspace(0.0, 5.0 / sigma_e, cfg["s_points"])
    rows, files = [], {}
    for label, grid, variance in zip(labels, grids, variances):
        gb = FiniteLaw.of("boyer", grid, direction)(s)
        g_lat = GaussianMode(np.sqrt(variance))(s)
        g_cont = GaussianMode(sigma_e)(s)
        dev = np.abs(gb - g_lat)
        files[f"generating_{label}.csv"] = _csv(
            "generating function",
            ("s", "bessel_product", "gaussian_lattice", "gaussian_continuum", "deviation"),
            [s, gb, g_lat, g_cont, dev],
            {"n_modes": len(grid), "direction": direction.tolist()})
        rows.append({"label": label, "n_modes": len(grid),
                     "max_deviation": float(np.max(dev)),
                     "max_deviation_continuum": float(np.max(np.abs(gb - g_cont)))})
    summary = {"sigma_e": sigma_e, "sweep": rows}
    if len(rows) > 1:
        summary["deviation_ratios"] = [
            rows[i]["max_deviation"] / rows[i + 1]["max_deviation"]
            for i in range(len(rows) - 1)
        ]
    return summary, files


# -------------------------------------------------------------- entry point

COMMANDS = {
    "sample-mode": cmd_sample_mode,
    "total-field": cmd_total_field,
    "oscillator": cmd_oscillator,
    "figure1": cmd_figure1,
    "generating": cmd_generating,
}


def run(cfg, as_json: bool) -> int:
    """The one run writer: cfg's command only computes (summary, files),
    files mapping each output file name, in order, to the call that writes
    it; only when the summary holds no nan or inf is cfg["out"] made and
    every file written into it."""
    summary, files = COMMANDS[cfg["command"]](cfg)
    summary["files"] = list(files)
    try:
        report = json.dumps(summary, indent=1, allow_nan=False)
    except ValueError as exc:   # a nan or inf statistic
        raise FloatingPointError(f"report.json would hold a non-finite statistic: {exc}") from exc
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    (out / "manifest.json").write_text(json.dumps(cfg, indent=1))
    (out / "report.json").write_text(report)
    print(json.dumps(summary) if as_json
          else "\n".join(f"{key}: {value}" for key, value in summary.items()))
    return 0


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
        # an overflow, a nan from finite inputs or a division by zero raises
        # FloatingPointError (exit 2) instead of printing numpy's warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run(resolve(args), args.as_json)
    except (ArithmeticError, ConvergenceError, InsufficientRangeError) as exc:
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
