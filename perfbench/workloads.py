"""The four benchmark workloads: inputs from a seed, the timed operation,
and the checks on its outputs.

A workload object is built from ``(seed, rundir)``; building it is the
benchmark's set-up (it imports zpfsim and makes the inputs). ``op(outdir)``
is one timed operation. ``fingerprint`` runs after every operation: it
checks the report's counts and hashes the output, which must equal the
first operation's. ``check`` runs once, on the first operation's output,
after timing ends.

Every reference value is computed here from first principles (closed
forms, lattice counts, the transfer function), never read from stored
copies of earlier output. Statistical tolerances are set so that a correct
sampler fails a check with probability below 1e-7 on any seed; see the
README for how each was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# per-check false-failure probability; a handful of checks per run keeps the
# whole run below 1e-6
ALPHA = 1e-7
Z_ALPHA = 5.33  # two-sided normal quantile for ALPHA


def import_zpfsim():
    """Import zpfsim from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import zpfsim
    import zpfsim.cli  # noqa: F401  (the CLI workloads call it)

    if Path(zpfsim.__file__).resolve().parent != (SRC / "zpfsim").resolve():
        raise ImportError(f"zpfsim imported from {zpfsim.__file__}, not from {SRC}")
    return zpfsim


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path):
    """Numeric body of a zpfsim CSV: '#' comment lines, one header line."""
    skip = 0
    with open(path) as fh:
        for line in fh:
            skip += 1
            if not line.startswith("#"):
                break
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


_TIMESTAMP = re.compile(rb"^# generated: [^\n]*\n", re.M)


def digest(paths):
    """Hash of output files with their one timestamp line removed."""
    h = hashlib.sha256()
    for path in paths:
        h.update(_TIMESTAMP.sub(b"", Path(path).read_bytes(), count=1))
    return h.hexdigest()


def lattice_modes(box_side, cutoff, c=1.0):
    """Lexicographic wave-number triples n != 0 with c|k| <= cutoff,
    k = 2 pi n / L; each carries two polarizations."""
    dk = 2.0 * np.pi / box_side
    nmax = int(cutoff / (c * dk)) + 1
    rng_ = range(-nmax, nmax + 1)
    return [n for n in itertools.product(rng_, repeat=3)
            if any(n) and c * dk * np.sqrt(np.dot(n, n)) <= cutoff * (1.0 + 1e-12)]


def arcsine_cdf(x, amp):
    """Closed-form cdf of amp * cos(theta), theta uniform."""
    return 0.5 + np.arcsin(np.clip(x / amp, -1.0, 1.0)) / np.pi


def ks_pvalue(x, cdf):
    from scipy import stats
    return float(stats.kstest(x, cdf).pvalue)


def unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------- CLI

class CliWorkload:
    """One zpfsim subcommand run through ``zpfsim.cli.main``."""

    command = ""
    output_files = ()

    def __init__(self, seed, rundir):
        self.zpfsim = import_zpfsim()
        self.rng = np.random.default_rng(seed)
        self.zseed = int(self.rng.integers(0, 2**31))
        self.config = self.make_config()
        self.config["seed"] = self.zseed
        rundir.mkdir(parents=True, exist_ok=True)
        self.config_path = rundir / "config.json"
        self.config_path.write_text(json.dumps(self.config))

    def op(self, outdir):
        argv = [self.command, "--config", str(self.config_path),
                "--out", str(outdir), "--json"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.zpfsim.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"zpfsim {self.command} exited {code}")

    def fingerprint(self, outdir, result):
        report = json.loads((outdir / "report.json").read_text())
        self.check_counts(report)
        return digest([outdir / "report.json"]
                      + [outdir / name for name in self.output_files])

    def check_counts(self, report):
        raise NotImplementedError


class OscEnsemble(CliWorkload):
    """Driven-oscillator coordinate ensemble on the 1152-mode shell grid."""

    command = "oscillator"
    output_files = ("coordinates.csv",)
    samples = 12_000
    n_shells, n_dirs = 96, 6
    coverage = 0.999
    charge, nu0 = 0.01, 1.0

    def make_config(self):
        return {
            "kind": "modified", "samples": self.samples,
            "t": float(self.rng.uniform(0.0, 100.0)),
            "constants": {"hbar": 1.0, "eps0": 1.0, "c": 1.0,
                          "electron_mass": 1.0, "electron_charge": self.charge},
            "oscillator": {"nu0": self.nu0, "from_constants": True},
            "shells": {"n_shells": self.n_shells, "directions": "axes",
                       "coverage": self.coverage},
        }

    def check_counts(self, report):
        require(report["n_modes"] == self.n_shells * self.n_dirs * 2,
                f"n_modes {report['n_modes']} != {self.n_shells * self.n_dirs * 2}")
        for m in report["moments_per_axis"]:
            require(m["count"] == self.samples, f"count {m['count']} != {self.samples}")

    def check(self, outdir, result):
        z = self.zpfsim
        report = json.loads((outdir / "report.json").read_text())
        q = read_csv(outdir / "coordinates.csv")
        n = self.samples
        require(q.shape == (n, 3), f"coordinates.csv has shape {q.shape}")
        cst = self.config["constants"]
        hbar, m, e = cst["hbar"], cst["electron_mass"], cst["electron_charge"]
        eps0, c = cst["eps0"], cst["c"]
        # resonance limit times the covered share of the line
        axis_var = hbar / (2.0 * m * self.nu0) * self.coverage
        # the shell quadrature and the resonance approximation together
        # move the grid variance by less than this share (4e-10 measured)
        systematic = 1e-5
        var = np.var(q, axis=0, ddof=1)
        tol = Z_ALPHA * np.sqrt(2.0 / (n - 1)) + systematic
        for i in range(3):
            require(abs(var[i] / axis_var - 1.0) < tol,
                    f"axis {i} variance {var[i]:.6g} vs {axis_var:.6g} (tol {tol:.3g})")
            require(np.isclose(report["empirical_variance_per_axis"][i], var[i],
                               rtol=1e-9, atol=0.0),
                    f"report variance on axis {i} differs from the CSV's")
        r2 = float(np.mean(q[:, 0] ** 2 + q[:, 1] ** 2))
        r2_pred = hbar / (m * self.nu0) * self.coverage
        tol = Z_ALPHA / np.sqrt(n) + systematic
        require(abs(r2 / r2_pred - 1.0) < tol,
                f"<qx^2+qy^2> {r2:.6g} vs {r2_pred:.6g} (tol {tol:.3g})")
        from scipy import stats
        for i in range(3):
            p = ks_pvalue(q[:, i], stats.norm(scale=np.sqrt(axis_var)).cdf)
            require(p > ALPHA / 3, f"axis {i} KS against the Gaussian: p = {p:.3g}")
        gamma = e**2 / (6.0 * np.pi * eps0 * m * c**3)
        closed = np.pi * (e / m) ** 2 / (2.0 * gamma * self.nu0)
        quad = report["resonance_integral"]["quadrature"]
        require(abs(quad / closed - 1.0) < 1e-3,
                f"resonance quadrature {quad:.8g} vs closed form {closed:.8g}")
        # reproducibility: rows regenerated alone through start=j
        consts = z.PhysicalConstants(**cst)
        params = z.OscillatorParams.from_constants(self.nu0, consts)
        grid = z.resonance_shell_grid(params, consts, n_shells=self.n_shells,
                                      coverage=self.coverage)
        rows = np.random.default_rng(self.zseed).choice(n, size=3, replace=False)
        for j in rows:
            row = z.coordinate_ensemble("modified", grid, params, self.config["t"], 1,
                                        self.zseed, start=int(j)).values[0]
            require(np.array_equal(row, q[j]), f"row {j} regenerated alone differs")


class ModeCsv(CliWorkload):
    """A million Boyer samples of one mode written as CSV."""

    command = "sample-mode"
    output_files = ("samples.csv",)
    samples = 1_000_000
    box_side, cutoff = 2.0 * np.pi, 2.5   # the CLI's default lattice

    def make_config(self):
        self.modes = lattice_modes(self.box_side, self.cutoff)
        return {
            "kind": "boyer", "samples": self.samples,
            "mode_index": int(self.rng.integers(0, 2 * len(self.modes))),
            "r": [float(v) for v in self.rng.uniform(-3.0, 3.0, 3)],
            "t": float(self.rng.uniform(0.0, 10.0)),
        }

    def sigma(self):
        n = np.array(self.modes[self.config["mode_index"] // 2], dtype=float)
        omega = np.linalg.norm(2.0 * np.pi * n / self.box_side)
        return float(np.sqrt(omega / (2.0 * self.box_side**3)))   # hbar = eps0 = 1

    def check_counts(self, report):
        require(report["moments"]["count"] == self.samples,
                f"count {report['moments']['count']} != {self.samples}")
        require(report["ks_arcsine"]["n"] == self.samples, "KS n differs from samples")

    def check(self, outdir, result):
        z = self.zpfsim
        report = json.loads((outdir / "report.json").read_text())
        x = read_csv(outdir / "samples.csv")[:, 0]
        n = self.samples
        require(x.size == n, f"samples.csv holds {x.size} rows")
        sigma = self.sigma()
        require(np.isclose(report["sigma"], sigma, rtol=1e-12, atol=0.0),
                f"report sigma {report['sigma']!r} vs {sigma!r}")
        amp = np.sqrt(2.0) * sigma
        require(np.max(np.abs(x)) <= amp * (1.0 + 1e-12), "a sample exceeds sqrt(2) sigma")
        p = ks_pvalue(x, lambda v: arcsine_cdf(v, amp))
        require(p > ALPHA, f"KS against the arcsine law: p = {p:.3g}")
        from scipy import stats
        p = ks_pvalue(x, stats.norm(scale=sigma).cdf)
        require(p < ALPHA, f"KS against the Gaussian did not reject: p = {p:.3g}")
        # arcsine: E x^4 = 3 sigma^4 / 2, so Var(x^2) = sigma^4 / 2
        var = float(np.var(x, ddof=1))
        tol = Z_ALPHA * np.sqrt(0.5 / n)
        require(abs(var / sigma**2 - 1.0) < tol,
                f"variance {var:.8g} vs sigma^2 {sigma**2:.8g} (tol {tol:.3g})")
        require(np.isclose(report["moments"]["variance"], var, rtol=1e-9, atol=0.0),
                "report variance differs from the CSV's")
        grid = z.build_grid(self.box_side, self.cutoff)
        require(len(grid) == 2 * len(self.modes), "lattice mode count differs")
        rows = np.random.default_rng(self.zseed).choice(n, size=3, replace=False)
        for j in rows:
            v = z.sample_mode_batch("boyer", grid, self.config["mode_index"],
                                    self.config["r"], self.config["t"], 1,
                                    self.zseed, start=int(j)).values[0]
            require(v == x[j], f"sample {j} regenerated alone differs")


class FieldBoyer(CliWorkload):
    """x component of the summed Boyer field on the default 160-mode lattice."""

    command = "total-field"
    output_files = ("histogram.csv",)
    samples = 100_000
    box_side, cutoff = 2.0 * np.pi, 2.5

    def make_config(self):
        return {
            "kind": "boyer", "samples": self.samples,
            "r": [float(v) for v in self.rng.uniform(-3.0, 3.0, 3)],
            "t": float(self.rng.uniform(0.0, 10.0)),
        }

    def check_counts(self, report):
        n_modes = 2 * len(lattice_modes(self.box_side, self.cutoff))
        require(report["n_modes"] == n_modes, f"n_modes {report['n_modes']} != {n_modes}")
        require(report["moments"]["count"] == self.samples,
                f"count {report['moments']['count']} != {self.samples}")

    def check(self, outdir, result):
        from scipy import stats
        from scipy.special import ndtr
        z = self.zpfsim
        report = json.loads((outdir / "report.json").read_text())
        n = self.samples
        grid = z.build_grid(self.box_side, self.cutoff)
        proj = grid.eps[:, 0]
        var_th = float(np.sum(grid.sigma**2 * proj**2))
        amp = np.sqrt(2.0) * grid.sigma * proj
        # Boyer terms are bounded: fourth cumulant -3/8 sum A^4 < 0, so
        # 2 sigma^4/(n-1) bounds the variance of the sample variance
        var = report["moments"]["variance"]
        tol = Z_ALPHA * np.sqrt(2.0 / (n - 1))
        require(abs(var / var_th - 1.0) < tol,
                f"variance {var:.8g} vs {var_th:.8g} (tol {tol:.3g})")
        h = read_csv(outdir / "histogram.csv")
        left, right, dens = h[:, 0], h[:, 1], h[:, 2]
        counts = np.rint(dens * (right - left) * n)
        sd = np.sqrt(var_th)
        a, b = left / sd, right / sd
        p = ndtr(b) - ndtr(a)
        # first Edgeworth term of the bin mass, doubled to cover later ones
        gamma2 = -0.375 * np.sum(amp**4) / var_th**2

        def he3_phi(u):
            return (u**3 - 3.0 * u) * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)

        allow = 2.0 * abs(gamma2) / 24.0 * np.abs(he3_phi(b) - he3_phi(a))
        alpha_bin = ALPHA / len(p)
        lo = stats.binom.ppf(alpha_bin / 2, n, np.clip(p - allow, 0.0, 1.0))
        hi = stats.binom.isf(alpha_bin / 2, n, np.clip(p + allow, 0.0, 1.0))
        bad = np.flatnonzero((counts < lo) | (counts > hi))
        require(bad.size == 0, f"histogram bins {bad.tolist()} differ from Gaussian masses")


# ------------------------------------------------------------- inversion

class GfInversion:
    """Generating-function inversion through the public API: one-mode
    Bessel product -> arcsine density, a Gaussian round trip, and the
    Bessel products of the 244/920/3676-mode density sweep."""

    arcsine_points, arcsine_ns = 401, 2**17 + 1
    gauss_points = 601
    sweep_points = 401
    box_side, cutoff = 4.0 * np.pi, 1.5
    factors = (1.0, 4.0, 16.0)

    def __init__(self, seed, rundir):
        self.zpfsim = import_zpfsim()
        rng = np.random.default_rng(seed)
        self.kvec = unit_vector(rng) * rng.uniform(0.5, 2.0)
        self.volume = 0.5
        self.gauss_sigma = float(rng.uniform(0.5, 2.0))
        self.direction = unit_vector(rng)
        sigma = np.sqrt(np.linalg.norm(self.kvec) / (2.0 * self.volume))  # hbar = eps0 = c = 1
        self.amp = np.sqrt(2.0) * sigma
        margin = 0.05 * self.amp
        self.x_arcsine = np.linspace(-self.amp + margin, self.amp - margin,
                                     self.arcsine_points)
        self.x_gauss = np.linspace(-6.0, 6.0, self.gauss_points) * self.gauss_sigma

    def op(self, outdir):
        z = self.zpfsim
        one = z.grid_from_kvectors([self.kvec], volume=self.volume, polarizations=(1,))
        out = {"arcsine": z.invert_characteristic(
            z.BesselProductGF(one, tuple(one.eps[0])), self.x_arcsine,
            s_max=3000.0 * np.sqrt(2.0) / self.amp, n_s=self.arcsine_ns, decay_tol=0.05)}
        out["gauss"] = z.invert_characteristic(z.GaussianGF(self.gauss_sigma), self.x_gauss,
                                               s_max=8.0 / self.gauss_sigma)
        d = tuple(self.direction)
        for f in self.factors:
            grid = z.build_grid(self.box_side * f ** (1.0 / 3.0), self.cutoff)
            sd = np.sqrt(np.sum((grid.eps @ self.direction) ** 2 * grid.sigma**2))
            x = np.linspace(-8.0, 8.0, self.sweep_points) * sd
            out[f"sweep_{f:g}"] = (len(grid), sd, x, z.invert_characteristic(
                z.BesselProductGF(grid, d), x, s_max=10.0 / sd))
        return out

    def fingerprint(self, outdir, result):
        h = hashlib.sha256()
        for key in sorted(result):
            val = result[key]
            for arr in (val if isinstance(val, tuple) else (val,)):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def check(self, outdir, result):
        from scipy.integrate import cumulative_trapezoid, trapezoid
        x, pdf = self.x_arcsine, result["arcsine"]
        require(pdf.shape == x.shape, "arcsine density has the wrong length")
        # renormalization spread the excluded end mass over the interior:
        # rescale by the exact interior mass before comparing
        exact = arcsine_cdf(x, self.amp)
        cdf = cumulative_trapezoid(pdf, x, initial=0.0) * (exact[-1] - exact[0]) + exact[0]
        err = float(np.max(np.abs(cdf - exact)))
        require(err < 1e-3, f"arcsine cdf error {err:.3g}")
        s, xg = self.gauss_sigma, self.x_gauss
        exact = np.exp(-0.5 * (xg / s) ** 2) / (np.sqrt(2.0 * np.pi) * s)
        err = float(np.max(np.abs(result["gauss"] - exact)) * s)
        require(err < 1e-6, f"Gaussian round trip error {err:.3g} (unit sigma)")
        devs = []
        for f in self.factors:
            n_modes, sd, x, pdf = result[f"sweep_{f:g}"]
            expect = 2 * len(lattice_modes(self.box_side * f ** (1.0 / 3.0), self.cutoff))
            require(n_modes == expect, f"density {f:g}: {n_modes} modes, expected {expect}")
            m2 = float(trapezoid(x**2 * pdf, x))
            require(abs(m2 / sd**2 - 1.0) < 1e-6,
                    f"density {f:g}: second moment {m2:.10g} vs {sd**2:.10g}")
            gauss = np.exp(-0.5 * (x / sd) ** 2) / (np.sqrt(2.0 * np.pi) * sd)
            devs.append(float(np.max(np.abs(pdf - gauss)) * sd))
        require(all(a > b for a, b in zip(devs, devs[1:])),
                f"deviation from the Gaussian does not fall with density: {devs}")


WORKLOADS = {
    "osc-ensemble": OscEnsemble,
    "mode-csv": ModeCsv,
    "field-boyer": FieldBoyer,
    "gf-inversion": GfInversion,
}
