"""Empirical statistics: moments, one-sample KS tests, histograms, and the
CSV writer every zpfsim data file goes through.

The KS test uses the asymptotic two-sided critical value c(alpha)/sqrt(n)
with c(alpha) = sqrt(-ln(alpha/2)/2) (1.358 at 5%, 1.628 at 1%); all
statistical acceptance checks in this package run at n >= 1e4 where the
asymptotic form is accurate.

The CSV writer formats numbers with numpy, not one Python call per value,
and writes exactly the bytes of Python's ``'%.17g' % v``. It scales each
|v| to 17 integer digits as a double-double p + s (error under 2**-45, see
_format_17g) and formats in the fast path only what that error cannot
move: p + s at least 2**-30 from the nearest rounding tie and decade edge.
The rest falls back to ``'%.17g' % v`` itself: values within that margin
(about one in 5e8 for random data), |v| outside [1e-280, 1e280] (the
subnormals included), nan and inf. Zeros of either sign take the fast
path.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# values formatted per numpy pass in write_csv, in whole rows: about 1 MB
# of temporaries
CSV_BLOCK_VALUES = 2**12

_SPLIT = 2.0**27 + 1.0        # Dekker's splitter: a float64 into two 26-bit halves
_MARGIN = 2.0**-30            # least distance to a tie or decade edge the fast path takes
_Q_MIN, _Q_MAX = -266, 298    # the scales 10**q, q = 16 - E, of 1e-280 <= |v| <= 1e280
_E_ROW = 300                  # decimal exponent E has row E + _E_ROW of the exponent tables


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
    """Mean, unbiased variance, skewness and excess kurtosis of samples.
    When max|d| of the deviations d = x - mean lies outside [2**-200,
    2**200], where d**4 could overflow or underflow to 0, d is first scaled
    by an exact power of two: the variance is scaled back, and skewness and
    kurtosis, which do not depend on the scale, come from the scaled d. A
    variance beyond the largest double raises FloatingPointError."""
    x = _finite_samples(samples, 2, "a moment report")
    n = x.size
    mean = float(np.mean(x))
    d = x - mean
    big = max(float(np.max(d)), -float(np.min(d)))
    shift = 0 if big == 0.0 or 2.0**-200 <= big <= 2.0**200 else -math.frexp(big)[1]
    if shift:
        d = np.ldexp(d, shift)
    d2 = d * d  # products, not d**3 and d**4: libm pow is about 20x slower
    m2 = float(np.mean(d2))
    m3 = float(np.mean(d2 * d))
    m4 = float(np.mean(d2 * d2))
    try:
        variance = math.ldexp(m2 * n / (n - 1), -2 * shift)
    except OverflowError:
        raise FloatingPointError("the sample variance overflows a double") from None
    skewness = m3 / m2**1.5 if m2 > 0 else 0.0
    excess_kurtosis = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    return MomentReport(count=n, mean=mean, variance=variance, skewness=skewness,
                        excess_kurtosis=excess_kurtosis, se_mean=math.sqrt(variance / n),
                        se_variance=variance * math.sqrt(2.0 / (n - 1)))


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


@functools.cache
def _format_tables():
    """The tables of _format_17g, built on its first call and never written.

    pow_hi, pow_lo: hi + lo = 10**q for q in [_Q_MIN, _Q_MAX], each
    correctly rounded from Python integers. chunk: the four ASCII digits
    of 0..9999 in the low bytes of a uint64. ends[k]: the digit count up to
    and including chunk k of the 17 digits (a leading digit, then four
    chunks of four) with trailing zeros dropped, 1 where the chunk is zero;
    the text's digit count is their maximum.

    Per decimal exponent E, in row E + _E_ROW: point, the digits before
    the decimal point (17: no point); keep, the digits printed even if
    zero; signed, the sign and "0.000" prefix as a word, in rows 2 * row
    (plus) and 2 * row + 1 (minus); exponent, "e+17" and the like in bytes
    2-6 of a word, 0 where '%.17g' uses fixed notation (-4 <= E < 17).

    take, shift, dot: for each of the three words holding the 18 mantissa
    bytes, and for each point position P and text length M (index
    P * 19 + M), the byte masks of the digits before the point, of the
    digits after it (moved up one byte) and of the point, 0 from byte M on.
    """
    pow_hi, pow_lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den                      # int / int rounds correctly
        m, d = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * d - m * den) / (den * d))
    c = np.arange(10**4, dtype=np.int16)
    digits = [c // 1000, c // 100 % 10, c // 10 % 10, c % 10]
    # the digits of c up to its last nonzero one: 0 for c = 0
    sig = np.max([(k + 1) * (d > 0) for k, d in enumerate(digits)], axis=0)
    E = np.arange(-_E_ROW, _E_ROW + 1)
    fixed = (E >= -4) & (E < 17)
    word = lambda text: int.from_bytes(text.encode(), "little")
    prefix = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in E.tolist()]
    j = np.arange(24)                       # the bytes of three mantissa words
    point, length = np.arange(19)[:, None, None], np.arange(19)[None, :, None]
    kept = j < length

    def words(cond, byte=0xFF):             # (19, 19, 24) bytes -> (3, 361) words
        mask = np.where(cond & kept, byte, 0).astype(np.uint8)
        return np.ascontiguousarray(mask.view("<u8").reshape(361, 3).T)

    return types.SimpleNamespace(
        pow_hi=np.array(pow_hi), pow_lo=np.array(pow_lo),
        chunk=sum((d + ord("0")).astype(np.uint64) << (8 * k) for k, d in enumerate(digits)),
        ends=[np.where(sig > 0, 1 + 4 * k + sig, 1).astype(np.int8) for k in range(4)],
        point=np.where(fixed, np.where(E >= 0, E + 1, 17), 1),
        keep=np.where(fixed, np.where(E >= 0, E + 1, 0), 1),
        signed=np.array([[word(p), word("-" + p)] for p in prefix], np.uint64).ravel(),
        exponent=np.array([0 if f else word("e%+03d" % e)
                           for e, f in zip(E.tolist(), fixed)], np.uint64) << 16,
        take=words(j < point), shift=words(j > point), dot=words(j == point, ord(".")))


def _halves(x):
    """Dekker's split: hi + lo == x exactly, each with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _scaled(a, q, t):
    """(p, s) with p + s = a * 10**q as a double-double: p = fl(a * hi) and
    its exact error by Dekker's TwoProduct (numpy has no fused multiply-add
    and rounds each product correctly), plus fl(a * lo)."""
    hi, lo = t.pow_hi[q - _Q_MIN], t.pow_lo[q - _Q_MIN]
    p = a * hi
    ah, al = _halves(a)
    hh, hl = _halves(hi)
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo


def _python_17g(v) -> bytes:
    """Python's own ``'%.17g' % v``: what _format_17g falls back to."""
    return ("%.17g" % v).encode()


def _format_17g(x, ends) -> bytes:
    """The bytes of ``'%.17g' % v`` followed by its end byte, for each v of
    the float64 vector x; ends holds each end byte (',' or newline) in its
    top byte.

    The decimal exponent E of |v| comes from log10. y = |v| * 10**q with
    q = 16 - E is then formed as p + s (_scaled), off y by less than
    2**-104 * y <= 2**-47 (10**q = hi + lo to 2**-106 relative; fl(a * lo)
    and the sum into s each add under 2**-105 relative), so under 2**-45.
    Where 10**q is exact (0 <= q <= 22), lo is 0 and p + s is y exactly.
    The decade, 10**16 <= y < 10**17, is settled from p and s apart, as
    the signs of (p - 1e16) + s and (p - 1e17) + s, and where log10 missed
    it E moves by one and y is formed again. The 17 digits are y rounded
    half to even, p (an integer, being >= 2**53) plus floor(s) plus the
    rounding of the fraction of s; y rounding up to 10**17 moves E up.
    Unless y is exact, the fast path takes only values whose fraction is
    at least _MARGIN from 1/2 and whose y is at least _MARGIN from both
    decade edges, where an error under 2**-45 cannot change the result.

    Each value is laid out in four uint64 words, bytes that %.17g does not
    write left 0: the sign and "0.000" prefix; the 17 digits with the
    decimal point at its place (fixed notation for -4 <= E < 17, else
    after the first digit) and trailing zeros dropped; the exponent; the
    end byte. The 0 bytes are deleted at the end. Values off the fast path
    are formatted by ``'%.17g' % v`` into the first three words.
    """
    t = _format_tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    q = 16 - E
    p, s = _scaled(a, q, t)
    d16, d17 = (p - 1e16) + s, (p - 1e17) + s           # the signs of y - 1e16, y - 1e17
    moved = np.flatnonzero((d16 < 0.0) | (d17 >= 0.0))
    if moved.size:
        E[moved] += np.where(d16[moved] < 0.0, -1, 1)
        q[moved] = 16 - E[moved]
        p[moved], s[moved] = _scaled(a[moved], q[moved], t)
        d16[moved], d17[moved] = (p[moved] - 1e16) + s[moved], (p[moved] - 1e17) + s[moved]
    margin = np.where((q >= 0) & (q <= 22), 0.0, _MARGIN)
    whole = np.floor(s)
    frac = s - whole
    fast &= (d16 >= margin) & (d17 < -margin) & (np.abs(frac - 0.5) >= margin)
    N = p.astype(np.int64) + whole.astype(np.int64)
    N += (frac > 0.5) | ((frac == 0.5) & (N & 1 == 1))
    top = N == 10**17
    N[top] = 10**16
    E += top
    np.putmask(N, ~fast, 0)                              # zeros print as "0"
    np.putmask(E, ~fast, 0)
    # N = d0 c1 c2 c3 c4: one digit, then four chunks of four digits
    head = N // 10**8
    c34 = N - head * 10**8
    d0 = head // 10**8
    c12 = head - d0 * 10**8
    c1, c3 = c12 // 10**4, c34 // 10**4
    c2, c4 = c12 - c1 * 10**4, c34 - c3 * 10**4
    t2, t4 = t.chunk[c2], t.chunk[c4]
    # the digits in bytes 0-16 of the little-endian words m0 m1 m2
    m0 = (d0.astype(np.uint64) + ord("0")) | (t.chunk[c1] << 8) | (t2 << 40)
    m1 = (t2 >> 24) | (t.chunk[c3] << 8) | (t4 << 40)
    m2 = t4 >> 24
    digits = np.maximum(np.maximum(t.ends[0][c1], t.ends[1][c2]),
                        np.maximum(t.ends[2][c3], t.ends[3][c4]))
    e = E + _E_ROW
    point = t.point[e]
    i = point * 19 + np.maximum(digits, t.keep[e]) + (digits > point)
    take, shift, dot = t.take, t.shift, t.dot
    row = np.empty((x.size, 4), np.uint64)
    row[:, 0] = t.signed[2 * e + np.signbit(x)]
    row[:, 1] = (m0 & take[0][i]) | ((m0 << 8) & shift[0][i]) | dot[0][i]
    row[:, 2] = (m1 & take[1][i]) | (((m1 << 8) | (m0 >> 56)) & shift[1][i]) | dot[1][i]
    row[:, 3] = ((m2 & take[2][i]) | (((m2 << 8) | (m1 >> 56)) & shift[2][i]) | dot[2][i]
                 | t.exponent[e] | ends)
    text = row.view(np.uint8)
    for k in np.flatnonzero(~(fast | zero)):
        b = _python_17g(x[k])
        row[k] = [0, 0, 0, ends[k]]
        text[k, :len(b)] = np.frombuffer(b, np.uint8)
    return row.tobytes().translate(None, b"\0")


def write_csv(path, title: str, names, rows, meta: dict) -> Path:
    """Write rows of numbers as CSV; returns the path.

    The header is ``# zpfsim <title>``, the sorted ``# key: value``
    metadata lines and the column names. Each value v is written as the
    bytes of Python's ``'%.17g' % float(v)`` (_format_17g), so the body
    round-trips exactly. The file depends on the arguments alone, so
    reruns are byte-identical. ``rows`` is an (n, c) array of real numbers
    (int and bool too), or an (n,) array written as one column; it is
    formatted in blocks of whole rows of about CSV_BLOCK_VALUES values,
    without a full-size copy.
    """
    path = Path(path)
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    n_cols = rows.shape[1]
    block = max(1, CSV_BLOCK_VALUES // max(n_cols, 1))   # rows
    # each value's end byte, ',' or a newline, in the top byte of a word
    ends = np.tile(np.array([ord(",")] * (n_cols - 1) + [ord("\n")], np.uint64) << 56, block)
    with path.open("w") as fh:
        fh.write(f"# zpfsim {title}\n")
        for key in sorted(meta):
            fh.write(f"# {key}: {meta[key]}\n")
        fh.write(",".join(names) + "\n")
        for i in range(0, len(rows), block):
            values = np.asarray(rows[i:i + block], dtype=float).ravel()
            fh.write(_format_17g(values, ends[:values.size]).decode("ascii"))
    return path

