import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfsim import Arcsine, GaussianMode, ks_critical, ks_test, moments, stats
from zpfsim.stats import CSV_BLOCK_VALUES, histogram, write_csv

from reference import empirical_generating

POWERS_OF_TEN = 10.0 ** np.arange(-323, 309)


def normal_samples(n, seed):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return gen.standard_normal(n)


def arcsine_samples(n, amplitude, seed):
    # independent construction: fixed-amplitude sinusoid with uniform phase
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return amplitude * np.cos(2 * np.pi * gen.random(n))


class TestMoments:
    def test_two_point(self):
        rep = moments([-1.0, 1.0])
        assert rep.mean == 0.0
        assert rep.variance == pytest.approx(2.0)
        assert rep.count == 2

    def test_gaussian_kurtosis(self):
        rep = moments(normal_samples(1_000_000, 10))
        assert abs(rep.excess_kurtosis) < 0.02  # SE = sqrt(24/n) ~ 0.005

    def test_arcsine_moments(self):
        # E[X^4] = (3/8) A^4 for the arcsine law, so excess kurtosis = -1.5
        rep = moments(arcsine_samples(1_000_000, np.sqrt(2.0), 11))
        assert rep.variance == pytest.approx(1.0, rel=0.01)
        assert rep.excess_kurtosis == pytest.approx(-1.5, abs=0.02)

    def test_permutation_invariant(self):
        # to round-off: reversal changes the summation order
        x = normal_samples(500, 3)
        a = moments(x)
        b = moments(x[::-1])
        assert a.count == b.count
        for field in ("mean", "variance", "skewness", "excess_kurtosis"):
            assert getattr(a, field) == pytest.approx(getattr(b, field),
                                                      rel=1e-12, abs=1e-12)

    def test_higher_moments_match_exact_sums(self):
        # lognormal: skewness and kurtosis of order 1, far from 0
        x = np.exp(0.5 * normal_samples(10_007, 5))
        n = x.size
        mean = math.fsum(x) / n
        d = [v - mean for v in x.tolist()]
        m2, m3, m4 = (math.fsum(v**p for v in d) / n for p in (2, 3, 4))
        rep = moments(x)
        assert rep.skewness == pytest.approx(m3 / m2**1.5, rel=1e-13)
        assert rep.excess_kurtosis == pytest.approx(m4 / m2**2 - 3.0, rel=1e-13)

    def test_scale_equivariant(self):
        x = normal_samples(500, 4)
        assert moments(3.0 * x).variance == pytest.approx(9.0 * moments(x).variance, rel=1e-12)

    @pytest.mark.parametrize("k", [-500, -300, 300, 500])
    def test_power_of_two_scale(self, k):
        """Deviations of about 2**k, whose fourth powers underflow to 0 or
        overflow, raise no floating-point error: the skewness and excess
        kurtosis keep their bits, and the variance is scaled by 4**k."""
        x = normal_samples(10000, 6)
        ref = moments(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rep = moments(np.ldexp(x, k))
        assert (rep.skewness, rep.excess_kurtosis) == (ref.skewness, ref.excess_kurtosis)
        assert rep.variance == math.ldexp(ref.variance, 2 * k)

    @pytest.mark.parametrize("x", [
        normal_samples(1000, 6) * 1e300, normal_samples(1000, 6) * 1e160,
        [1.7e308, -1.7e308, 1.0]], ids=["1e300", "1e160", "finite_mean"])
    def test_variance_overflow_is_named(self, x):
        """A variance beyond the largest double raises FloatingPointError
        (the CLI's exit 2) saying so, not math.ldexp's "math range error"."""
        with pytest.raises(FloatingPointError, match="sample variance overflows a double"):
            moments(x)

    def test_standard_errors_positive(self):
        rep = moments(normal_samples(100, 5))
        assert rep.se_mean > 0 and rep.se_variance > 0

    def test_standard_errors_by_hand(self):
        # mean 0.8, squared deviations summing to 15.425, so variance 15.425 / 4
        rep = moments([0.5, -1.25, 2.0, 3.5, -0.75])
        assert rep.variance == pytest.approx(3.85625, rel=1e-14)
        assert rep.se_mean == pytest.approx(math.sqrt(3.85625 / 5), rel=1e-14)
        assert rep.se_variance == pytest.approx(3.85625 * math.sqrt(2 / 4), rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            moments([1.0, np.nan])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            moments([1.0])


    def test_constant_sample_has_zero_shape(self):
        # m2 == 0: skewness and excess kurtosis are reported as 0, not 0/0
        r = moments(np.full(100, 2.5))
        assert (r.variance, r.skewness, r.excess_kurtosis) == (0.0, 0.0, 0.0)


class TestKS:
    def test_critical_constants(self):
        assert ks_critical(0.01, 1) == pytest.approx(1.628, abs=5e-4)
        assert ks_critical(0.05, 1) == pytest.approx(1.358, abs=5e-4)

    def test_null_passes(self):
        res = ks_test(normal_samples(10_000, 21), GaussianMode(1.0).cdf, alpha=0.01)
        assert res.passed
        assert 0.0 <= res.statistic <= 1.0

    def test_arcsine_vs_gaussian_rejected(self):
        # analytic sup-distance between the two cdfs is ~0.097
        x = np.linspace(-2.0, 2.0, 200_001)
        sup = np.max(np.abs(Arcsine(np.sqrt(2.0)).cdf(x) - GaussianMode(1.0).cdf(x)))
        assert 0.05 < sup < 0.12
        res = ks_test(arcsine_samples(10_000, np.sqrt(2.0), 22), GaussianMode(1.0).cdf)
        assert not res.passed
        assert res.statistic == pytest.approx(sup, abs=0.02)

    def test_any_order_gives_the_same_result(self, monkeypatch):
        """Ascending samples are not sorted again; the result is the same for
        any order of the same values."""
        x = normal_samples(1000, 24)
        expected = ks_test(x, GaussianMode(1.0).cdf)
        assert ks_test(x[::-1], GaussianMode(1.0).cdf) == expected
        ordered = np.sort(x)
        monkeypatch.setattr(np, "sort", None)
        assert ks_test(ordered, GaussianMode(1.0).cdf) == expected

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(5, dtype=float), GaussianMode(1.0).cdf)

    def test_rejects_nonfinite(self):
        # a NaN used to give statistic=nan and passed=False, with no error
        x = np.append(normal_samples(20, 23), np.nan)
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            ks_test(x, GaussianMode(1.0).cdf)

    def test_non_monotone_cdf_detected(self):
        with pytest.raises(ValueError, match="monotone"):
            ks_test(np.linspace(0, 6, 100), lambda x: 0.5 + 0.4 * np.sin(x))

    @pytest.mark.parametrize("cdf, ok", [
        (lambda x: x * (1.0 + 1e-11), False), (lambda x: x - 1e-11, False),
        (lambda x: x * (1.0 + 1e-13), True), (lambda x: x - 1e-13, True),
    ], ids=["above_1", "below_0", "rounding_above_1", "rounding_below_0"])
    def test_cdf_range_guard(self, cdf, ok):
        # only a departure from [0, 1] beyond 1e-12 is an error, at either end
        x = np.linspace(0.0, 1.0, 11)
        if ok:
            assert ks_test(x, cdf).n == 11
        else:
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                ks_test(x, cdf)

    def test_null_calibration(self):
        # rejection rate at alpha = 0.05 over 200 seeded repetitions
        rejections = 0
        for seed in range(200):
            res = ks_test(normal_samples(2000, 1000 + seed), GaussianMode(1.0).cdf,
                          alpha=0.05)
            rejections += not res.passed
        assert 0.01 <= rejections / 200 <= 0.10


class TestHistogram:
    def test_single_sample_single_bin(self):
        edges, dens = histogram([0.5], bins=1, value_range=(0.0, 2.0))
        assert dens[0] == pytest.approx(1.0 / 2.0)

    def test_uniform_density(self):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
        x = gen.random(200_000)
        edges, dens = histogram(x, bins=20, value_range=(0.0, 1.0))
        # multinomial SE per bin ~ sqrt(p(1-p)/n)/width with p = 1/20
        se = np.sqrt(0.05 * 0.95 / x.size) / 0.05
        assert np.all(np.abs(dens - 1.0) < 5 * se)

    def test_out_of_range_all_zero(self):
        edges, dens = histogram([5.0, 6.0], bins=4, value_range=(0.0, 1.0))
        assert np.all(dens == 0.0)

    def test_mass_conservation(self):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(32)))
        x = gen.normal(size=10_000)
        edges, dens = histogram(x, bins=17, value_range=(-1.0, 2.0))
        in_range = np.mean((x >= -1.0) & (x <= 2.0))
        assert abs(np.sum(dens * np.diff(edges)) - in_range) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0, value_range=(0, 1))
        with pytest.raises(ValueError):
            histogram([1.0], bins=2, value_range=(1, 1))


class TestEmpiricalGenerating:
    def test_gaussian_cf(self):
        x = normal_samples(200_000, 40)
        s = np.array([0.5, 1.0, 2.0])
        g, se = empirical_generating(x, s)
        expected = np.exp(-(s**2) / 2)
        assert np.all(np.abs(g.real - expected) < 4 * se)
        assert np.all(np.abs(g.imag) < 4 / np.sqrt(x.size))

    def test_exponential_cf_imaginary_part(self):
        # an asymmetric law tests the sign and argument of the sine term:
        # mean(exp(-i s X)) = 1 / (1 + i s) for X ~ Exp(1)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        x = gen.exponential(size=20_000)
        s = np.array([0.5, 1.0, 2.0])
        g, _ = empirical_generating(x, s)
        se = np.std(np.sin(s[:, None] * x), axis=1, ddof=1) / np.sqrt(x.size)
        assert np.all(np.abs(g.imag - (1.0 / (1.0 + 1j * s)).imag) < 5 * se)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            empirical_generating([0.5, np.nan, 1.0], [1.0])

    def test_rejects_single_sample(self):
        # one sample has no standard error: std with ddof=1 would be NaN
        with pytest.raises(ValueError, match="at least 2 samples"):
            empirical_generating([0.5], [1.0])


class TestWriteCsv:
    EDGE_VALUES = [-0.0, 5e-324, 1e308, -1.5e-300, 0.1, 1.0 / 3.0]

    def reference_body(self, rows):
        # one %.17g per value, one row at a time
        return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    def read(self, path):
        lines = path.read_text().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return lines[:header + 1], "".join(lines[header + 1:])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_body_matches_per_row_format(self, tmp_path, columns):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(50)))
        n = CSV_BLOCK_VALUES + 3  # crosses a block boundary
        values = gen.standard_normal((n, columns)) * 10.0 ** gen.integers(-300, 300, (n, 1))
        values.ravel()[:len(self.EDGE_VALUES)] = self.EDGE_VALUES
        names = ["c%d" % i for i in range(columns)]
        # 1-D input is written as one column
        rows = values[:, 0] if columns == 1 else values
        header, body = self.read(write_csv(tmp_path / "t.csv", "test", names, rows,
                                           {"b": 2, "a": [1.0]}))
        assert body == self.reference_body(values)
        assert header == ["# zpfsim test\n", "# a: [1.0]\n", "# b: 2\n", ",".join(names) + "\n"]

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_zero_rows(self, tmp_path, shape):
        header, body = self.read(write_csv(tmp_path / "e.csv", "empty", ["x", "y", "z"],
                                           np.empty(shape), {}))
        assert body == ""
        assert header[-1] == "x,y,z\n"

    def test_no_columns(self, tmp_path):
        header, body = self.read(write_csv(tmp_path / "n.csv", "none", [], np.empty((0, 0)), {}))
        assert (header, body) == (["# zpfsim none\n", "\n"], "")

    def body(self, tmp_path, values):
        return self.read(write_csv(tmp_path / "v.csv", "values", ["x"], values, {}))[1]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("values", [
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.concatenate([POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0.0),
                        np.nextafter(POWERS_OF_TEN, np.inf)]),
        np.arange(0.0, 2.0**53 + 1.0, 2.0**53 / 65536),        # integers
        np.arange(0.0, 2.0**53, 2.0**53 / 65536) + 0.5,         # halves
        np.array([2.0**53, 2.0**53 - 1.0, 2.0**52 + 0.5, 1.0, 0.5, 1.5]),
        # 18 digits ending in 5: ties that round half to even, both ways
        1.0 + np.arange(1, 200, 2) * 2.0**-17,
        # doubles just below 10**k whose 17 digits round up to 10**k
        np.array([1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129, 1e153, 1e220]),
        np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]),
        np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]),
    ], ids=["powers_of_two", "powers_of_ten", "integers", "halves", "near_2^53", "ties",
            "next_decade", "zeros_nan_inf", "subnormals"])
    def test_exact_17g(self, tmp_path, values, sign):
        """Each value is the bytes of Python's '%.17g', at every binary and
        decimal exponent and at the edges of the fast path."""
        values = sign * values
        assert self.body(tmp_path, values) == self.reference_body(values[:, None])

    def test_fallback_runs_and_matches(self, tmp_path, monkeypatch):
        """Values the fast path cannot certify take Python's '%.17g', and
        only they: inf, |v| outside [1e-280, 1e280], and an exact tie at
        the 18th digit (3 * 2**-24 = 1.78813934326171875e-07) whose scale
        10**23 is inexact. Values just below 1e10 and 0.1, whose log10
        rounds up to the next decade, are moved to their own and stay on
        the fast path."""
        formatted, python_17g = [], stats._python_17g

        def spy(v):
            formatted.append(float(v))
            return python_17g(v)

        monkeypatch.setattr(stats, "_python_17g", spy)
        fallback = [np.inf, 5e-324, 1e300, 3.0 * 2.0**-24, -1e-300]
        values = np.array([0.1, fallback[0], -0.0, *fallback[1:], 1.0 / 3.0, 0.0,
                           np.nextafter(1e10, 0.0), np.nextafter(0.1, 0.0)])
        assert self.body(tmp_path, values) == self.reference_body(values[:, None])
        assert formatted == fallback

    def test_column_order_and_dtypes(self, tmp_path):
        """An F-order (n, 3) array (as kernels.mode_sum returns), int and
        bool columns are written as '%.17g' of each value, row by row."""
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
        for rows in [np.asfortranarray(gen.standard_normal((5000, 3))),
                     gen.integers(-2**62, 2**62, (3000, 2)),
                     gen.integers(0, 2**64 - 1, (100, 3), dtype=np.uint64),
                     gen.random((1000, 3)) < 0.5]:
            names = ["c%d" % i for i in range(rows.shape[1])]
            header, body = self.read(write_csv(tmp_path / "d.csv", "d", names, rows, {}))
            assert body == self.reference_body(rows.tolist())

    @pytest.mark.parametrize("block", [1, 2, 5, 4097])
    def test_block_size_moves_no_byte(self, tmp_path, monkeypatch, block):
        """The block geometry is a constant that changes no byte."""
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(52)))
        values = gen.standard_normal((2000, 3)) * 10.0 ** gen.integers(-30, 30, (2000, 3))
        values[::97] = np.nan
        before = write_csv(tmp_path / "a.csv", "t", "xyz", values, {}).read_bytes()
        monkeypatch.setattr(stats, "CSV_BLOCK_VALUES", block)
        assert write_csv(tmp_path / "b.csv", "t", "xyz", values, {}).read_bytes() == before

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, tmp_path_factory, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        body = self.body(tmp_path_factory.mktemp("bits"), values)
        assert body == self.reference_body(values[:, None])
