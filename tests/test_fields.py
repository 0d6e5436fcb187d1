import numpy as np
import pytest

from zpfsim import (
    Arcsine,
    FieldKind,
    FieldRealization,
    FiniteLaw,
    GaussianMode,
    build_grid,
    draw_realization,
    eval_field,
    grid_from_kvectors,
    ks_test,
    mode_amplitude,
    moments,
    sample_field_batch,
    sample_mode_batch,
)
from zpfsim import kernels
from zpfsim.constants import PhysicalConstants
from zpfsim.fields import SampleSet

CONSTS = PhysicalConstants()
ORIGIN = np.zeros(3)


def single_mode_grid(volume=8.0):
    return grid_from_kvectors([[0.0, 0.0, 1.0]], volume=volume,
                              constants=CONSTS, polarizations=(1,))


def exp_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.0, 1.0 - np.exp(-np.clip(x, 0, None)))


class TestDrawRealization:
    def test_deterministic(self, small_grid):
        for kind in FieldKind:
            a = draw_realization(kind, small_grid, 42)
            b = draw_realization(kind, small_grid, 42)
            if kind is FieldKind.BOYER:
                assert np.array_equal(a.theta, b.theta)
            else:
                assert np.array_equal(a.w, b.w)

    def test_seeds_differ(self, small_grid):
        a = draw_realization("modified", small_grid, 1)
        b = draw_realization("modified", small_grid, 2)
        assert not np.array_equal(a.w, b.w)

    def test_modified_normal_moments_large_grid(self):
        grid = build_grid(2 * np.pi, 23.0, CONSTS)
        assert len(grid) >= 100_000
        real = draw_realization("modified", grid, 5)
        u = real.w.real
        assert abs(np.mean(u)) < 4 / np.sqrt(u.size)
        assert abs(np.var(u) - 1.0) < 0.02

    def test_boyer_phases_uniform(self):
        grid = build_grid(2 * np.pi, 23.0, CONSTS)
        real = draw_realization("boyer", grid, 6)
        res = ks_test(real.theta, lambda x: np.clip(x / (2 * np.pi), 0, 1), alpha=0.01)
        assert res.passed

    def test_realization_immutable(self, small_grid):
        real = draw_realization("boyer", small_grid, 7)
        with pytest.raises(ValueError):
            real.theta[0] = 0.0

    def test_invalid_seed(self, small_grid):
        with pytest.raises(ValueError, match="seed"):
            draw_realization("boyer", small_grid, -3)


class TestEvalField:
    def test_modified_zero_amplitudes(self, small_grid):
        real = FieldRealization(FieldKind.MODIFIED, small_grid.fingerprint, 0,
                                w=np.zeros(len(small_grid), dtype=complex))
        assert np.array_equal(eval_field(real, small_grid, ORIGIN, 0.0), np.zeros(3))

    def test_boyer_single_mode_phase_zero(self):
        grid = single_mode_grid()
        real = FieldRealization(FieldKind.BOYER, grid.fingerprint, 0, theta=np.zeros(1))
        e = eval_field(real, grid, ORIGIN, 0.0)
        assert np.allclose(e, np.sqrt(2.0) * grid.sigma[0] * grid.eps[0])

    def test_modified_single_mode_unit_amplitude(self):
        grid = single_mode_grid()
        real = FieldRealization(FieldKind.MODIFIED, grid.fingerprint, 0,
                                w=np.array([1.0 + 0.0j]))
        e = eval_field(real, grid, ORIGIN, 0.0)
        assert np.allclose(e, grid.sigma[0] * grid.eps[0])

    def test_grid_mismatch_rejected(self, small_grid, medium_grid):
        real = draw_realization("modified", small_grid, 1)
        with pytest.raises(ValueError, match="match"):
            eval_field(real, medium_grid, ORIGIN, 0.0)


class TestModeAmplitude:
    def test_modified_unit_real_amplitude(self):
        grid = single_mode_grid()
        real = FieldRealization(FieldKind.MODIFIED, grid.fingerprint, 0,
                                w=np.array([1.0 + 0.0j]))
        assert mode_amplitude(real, grid, 0, ORIGIN, 0.0) == pytest.approx(
            float(grid.sigma[0]))

    def test_index_out_of_range(self, small_grid):
        real = draw_realization("modified", small_grid, 1)
        with pytest.raises(IndexError):
            mode_amplitude(real, small_grid, len(small_grid), ORIGIN, 0.0)

    def test_amplitude_consistent_with_field(self, small_grid):
        # field vector is the eps-weighted sum of the scalar amplitudes
        real = draw_realization("boyer", small_grid, 9)
        r, t = np.array([0.2, -0.4, 1.0]), 0.7
        amps = np.array([mode_amplitude(real, small_grid, i, r, t)
                         for i in range(len(small_grid))])
        assert np.allclose(amps @ small_grid.eps, eval_field(real, small_grid, r, t),
                           rtol=1e-10)


class TestModeIntensity:
    def test_exponential_law(self):
        # i.i.d. intensities I = (u^2 + v^2)/2 drawn through the mode stream
        from zpfsim import rng
        uni = rng.mode_uniforms(8, 0, 200_000).reshape(-1, 2)
        u, v = rng.boxmuller(uni[:, 0], uni[:, 1])
        intensities = 0.5 * (u**2 + v**2)
        res = ks_test(intensities, exp_cdf, alpha=0.01)
        assert res.passed


class TestSampleModeBatch:
    def test_n1_matches_slow_path(self, small_grid):
        r, t = np.array([0.3, 0.1, -0.2]), 1.7
        for kind in FieldKind:
            real = draw_realization(kind, small_grid, 42)
            slow = mode_amplitude(real, small_grid, 5, r, t)
            batch = sample_mode_batch(kind, small_grid, 5, r, t, 1, 42)
            assert batch.values[0] == pytest.approx(slow, rel=1e-12)

    def test_partition_independent(self, small_grid):
        # the 70 000-sample splits cross the mode sum's 8192-row chunks and,
        # with two or more CPUs, the row ranges of its threads
        for kind, n, cut in (("modified", 50, 20), ("boyer", 70_000, 40_000),
                             ("modified", 70_000, 40_000)):
            full = sample_mode_batch(kind, small_grid, 3, ORIGIN, 0.0, n, 9).values
            p1 = sample_mode_batch(kind, small_grid, 3, ORIGIN, 0.0, cut, 9).values
            p2 = sample_mode_batch(kind, small_grid, 3, ORIGIN, 0.0, n - cut, 9,
                                   start=cut).values
            assert np.array_equal(full, np.concatenate([p1, p2]))

    def test_modified_gaussian_law(self, small_grid):
        sigma = float(small_grid.sigma[0])
        batch = sample_mode_batch("modified", small_grid, 0, ORIGIN, 0.0, 100_000, 123)
        assert ks_test(batch.values, GaussianMode(sigma).cdf, alpha=0.01).passed
        assert np.var(batch.values, ddof=1) == pytest.approx(sigma**2, rel=0.01)

    def test_boyer_arcsine_law_not_gaussian(self, small_grid):
        sigma = float(small_grid.sigma[0])
        batch = sample_mode_batch("boyer", small_grid, 0, ORIGIN, 0.0, 100_000, 124)
        assert ks_test(batch.values, Arcsine(np.sqrt(2) * sigma).cdf, alpha=0.01).passed
        res = ks_test(batch.values, GaussianMode(sigma).cdf, alpha=0.01)
        assert not res.passed
        assert res.statistic > 0.05

    def test_boyer_moments(self, small_grid):
        sigma = float(small_grid.sigma[7])
        batch = sample_mode_batch("boyer", small_grid, 7, ORIGIN, 0.0, 1_000_000, 125)
        rep = moments(batch.values)
        assert rep.variance == pytest.approx(sigma**2, rel=0.01)
        fourth = np.mean(batch.values**4)
        assert fourth == pytest.approx(1.5 * sigma**4, rel=0.02)

    def test_stationary_in_space_time(self, small_grid):
        # single-mode law does not depend on the evaluation point
        sigma = float(small_grid.sigma[4])
        for r, t in ([0.0, 0.0, 0.0], 0.0), ([1.3, -0.2, 0.4], 2.9):
            batch = sample_mode_batch("modified", small_grid, 4, r, t, 20_000, 126)
            assert ks_test(batch.values, GaussianMode(sigma).cdf, alpha=0.01).passed

    def test_energy_per_mode(self, small_grid):
        # eps0 V <E_k^2> = hbar omega / 2 within Monte Carlo error
        i = 2
        batch = sample_mode_batch("modified", small_grid, i, ORIGIN, 0.0, 1_000_000, 127)
        energy = CONSTS.eps0 * small_grid.volume * np.mean(batch.values**2)
        assert energy == pytest.approx(0.5 * CONSTS.hbar * small_grid.omega[i], rel=0.01)

    def test_invalid_count(self, small_grid):
        with pytest.raises(ValueError):
            sample_mode_batch("modified", small_grid, 0, ORIGIN, 0.0, 0, 1)


class TestSampleFieldBatch:
    @pytest.mark.parametrize("r, t", [(ORIGIN, 1e308), ([1e308, 0.0, 0.0], 0.0),
                                      ([1e308, -1e308, 0.0], 0.0)],
                             ids=["huge_t", "huge_r", "inf_minus_inf"])
    def test_non_finite_phase_is_named(self, r, t):
        # finite (r, t) whose phase k.r - w t overflows, or is inf - inf,
        # fails before sampling, without numpy's overflow or invalid warning
        grid = grid_from_kvectors([[0.0, 0.0, 1.0], [3.0, 3.0, 0.0]], volume=1.0,
                                  constants=CONSTS)
        real = draw_realization("boyer", grid, 1)
        for call in (lambda: sample_field_batch("boyer", grid, r, t, 10, 1),
                     lambda: sample_mode_batch("modified", grid, 3, r, t, 10, 1),
                     lambda: eval_field(real, grid, r, t),
                     lambda: mode_amplitude(real, grid, 3, r, t)):
            with pytest.raises(ValueError, match="fields 'r' and 't'"):
                call()

    def test_rows_match_slow_path(self, small_grid):
        batch = sample_field_batch("modified", small_grid, ORIGIN, 0.0, 3, 77)
        real = draw_realization("modified", small_grid, 77)
        assert np.allclose(batch.values[0], eval_field(real, small_grid, ORIGIN, 0.0),
                           rtol=1e-10)

    def test_partition_independent(self, small_grid):
        full = sample_field_batch("boyer", small_grid, ORIGIN, 0.0, 40, 78).values
        p1 = sample_field_batch("boyer", small_grid, ORIGIN, 0.0, 15, 78).values
        p2 = sample_field_batch("boyer", small_grid, ORIGIN, 0.0, 25, 78, start=15).values
        assert np.allclose(full, np.concatenate([p1, p2]), rtol=1e-13)

    def test_chunk_size_immaterial(self, small_grid, monkeypatch):
        a = sample_field_batch("modified", small_grid, ORIGIN, 0.0, 25, 79).values
        monkeypatch.setattr(kernels, "CHUNK", 4)
        b = sample_field_batch("modified", small_grid, ORIGIN, 0.0, 25, 79).values
        assert np.array_equal(a, b)

    def test_modified_component_gaussian_any_size(self, small_grid):
        # exact Gaussianity holds even for the smallest grids
        for grid in (single_mode_grid(), small_grid):
            sig = np.sqrt(FiniteLaw.of("modified", grid, [1.0, 0.0, 0.0]).variance)
            batch = sample_field_batch("modified", grid, ORIGIN, 0.0, 20_000, 80)
            res = ks_test(batch.values[:, 0], GaussianMode(sig).cdf, alpha=0.01)
            assert res.passed

    def test_boyer_clt(self, medium_grid):
        # many modes: central-limit Gaussianity; 1- and 2-mode grids: rejected
        sig = np.sqrt(FiniteLaw.of("modified", medium_grid, [1.0, 0.0, 0.0]).variance)
        batch = sample_field_batch("boyer", medium_grid, ORIGIN, 0.0, 10_000, 81)
        assert ks_test(batch.values[:, 0], GaussianMode(sig).cdf, alpha=0.01).passed

        lone = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=(2 * np.pi) ** 3,
                                  constants=CONSTS, polarizations=(1,))
        pair = grid_from_kvectors([[0.0, 0.0, 1.0]], volume=(2 * np.pi) ** 3,
                                  constants=CONSTS)
        for seed, grid in ((82, lone), (83, pair)):
            sig_small = np.sqrt(FiniteLaw.of("modified", grid, [1.0, 0.0, 0.0]).variance)
            small = sample_field_batch("boyer", grid, ORIGIN, 0.0, 10_000, seed)
            assert not ks_test(small.values[:, 0], GaussianMode(sig_small).cdf,
                               alpha=0.01).passed


class TestSampleSet:
    def test_csv_roundtrip(self, small_grid, tmp_path):
        batch = sample_mode_batch("modified", small_grid, 0, ORIGIN, 0.0, 100, 11)
        path = batch.to_csv(tmp_path / "s.csv")
        rows = [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == "value"
        parsed = np.array([float(v) for v in rows[1:]])
        assert np.array_equal(parsed, batch.values)
        assert "# r: [0.0, 0.0, 0.0]\n" in path.read_text()

    def test_vector_csv(self, small_grid, tmp_path):
        batch = sample_field_batch("modified", small_grid, ORIGIN, 0.0, 10, 12)
        path = batch.to_csv(tmp_path / "v.csv")
        rows = [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == "x,y,z"
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert np.array_equal(parsed, batch.values)
        assert "# r: [0.0, 0.0, 0.0]\n" in path.read_text()

    def test_column_major_values_kept(self, small_grid, tmp_path):
        # the mode sum's column-major rows are kept, not copied, and write
        # the CSV of a C-order copy
        batch = sample_field_batch("boyer", small_grid, ORIGIN, 0.0, 50, 13)
        assert batch.values.flags.f_contiguous and not batch.values.flags.writeable
        copy = SampleSet(values=np.ascontiguousarray(batch.values), meta=batch.meta)
        paths = [s.to_csv(tmp_path / f"{i}.csv") for i, s in enumerate((batch, copy))]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_count_invariant(self):
        with pytest.raises(ValueError, match="count"):
            from zpfsim.fields import SampleSet
            SampleSet(values=np.zeros(3), meta={"count": 5})
