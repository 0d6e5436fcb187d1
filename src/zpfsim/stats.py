"""Empirical statistics: moments, one-sample KS tests, histograms, and the
CSV writer every zpfsim data file goes through.

The KS test uses the asymptotic two-sided critical value c(alpha)/sqrt(n)
with c(alpha) = sqrt(-ln(alpha/2)/2) (1.358 at 5%, 1.628 at 1%); all
statistical acceptance checks in this package run at n >= 1e4 where the
asymptotic form is accurate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# rows formatted per % operation in write_csv
CSV_BLOCK_ROWS = 2**14


@dataclass(frozen=True)
class MomentReport:
    count: int
    mean: float
    variance: float            # unbiased
    skewness: float
    excess_kurtosis: float     # Gaussian -> 0
    se_mean: float
    se_variance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int
    alpha: float
    critical: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _finite_samples(samples, minimum: int, what: str) -> np.ndarray:
    """samples as a flat float array of at least ``minimum`` finite values."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < minimum:
        raise ValueError(f"{what} needs at least {minimum} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    return x


def moments(samples) -> MomentReport:
    x = _finite_samples(samples, 2, "a moment report")
    n = x.size
    mean = float(np.mean(x))
    d = x - mean
    d2 = d * d  # products, not d**3 and d**4: libm pow is about 20x slower
    m2 = float(np.mean(d2))
    m3 = float(np.mean(d2 * d))
    m4 = float(np.mean(d2 * d2))
    variance = m2 * n / (n - 1)
    skewness = m3 / m2**1.5 if m2 > 0 else 0.0
    excess_kurtosis = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    return MomentReport(
        count=n,
        mean=mean,
        variance=float(variance),
        skewness=float(skewness),
        excess_kurtosis=float(excess_kurtosis),
        se_mean=float(np.sqrt(variance / n)),
        se_variance=float(variance * np.sqrt(2.0 / (n - 1))),
    )


def ks_critical(alpha: float, n: int) -> float:
    """Asymptotic two-sided critical value c(alpha)/sqrt(n)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(np.sqrt(-np.log(alpha / 2.0) / 2.0) / np.sqrt(n))


def ks_test(samples, cdf, alpha: float = 0.01) -> KSResult:
    """One-sample two-sided Kolmogorov-Smirnov test against a callable cdf.
    Samples already in ascending order are not sorted again, so testing one
    sample set against several laws needs one sort."""
    x = _finite_samples(samples, 10, "a KS test")
    if not np.all(x[1:] >= x[:-1]):
        x = np.sort(x)
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf is not monotone on the sample range")
    if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
        raise ValueError("cdf values fall outside [0, 1]")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    crit = ks_critical(alpha, n)
    return KSResult(statistic=d, n=n, alpha=alpha, critical=crit, passed=d < crit)


def histogram(samples, bins: int, value_range):
    """Density-normalized histogram: sum(density * width) equals the
    fraction of samples inside value_range (not 1, unless all are)."""
    if bins < 1:
        raise ValueError("need at least one bin")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not hi > lo:
        raise ValueError("invalid range")
    x = np.asarray(samples, dtype=float).ravel()
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    widths = np.diff(edges)
    total = x.size
    densities = counts / (total * widths) if total > 0 else np.zeros(bins)
    return edges, densities


def write_csv(path, title: str, names, rows, meta: dict) -> Path:
    """Write rows of numbers as CSV; returns the path.

    The header is ``# zpfsim <title>``, the sorted ``# key: value``
    metadata lines and the column names. Every value is written as
    ``%.17g``, so the body round-trips exactly. The file depends on the
    arguments alone, so reruns are byte-identical. ``rows`` is an (n, c)
    array, or an (n,) array written as one column; it is formatted a
    block of rows at a time, without a full-size copy.
    """
    path = Path(path)
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    row_fmt = "%.17g," * (rows.shape[1] - 1) + "%.17g\n"
    with path.open("w") as fh:
        fh.write(f"# zpfsim {title}\n")
        for key in sorted(meta):
            fh.write(f"# {key}: {meta[key]}\n")
        fh.write(",".join(names) + "\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[i:i + CSV_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return path

