import numpy as np
import pytest

from zpfsim import rng


class TestStreams:
    def test_mode_stream_deterministic(self):
        a = rng.mode_stream(42, 3).random(8)
        b = rng.mode_stream(42, 3).random(8)
        assert np.array_equal(a, b)

    def test_modes_independent(self):
        a = rng.mode_stream(42, 0).random(8)
        b = rng.mode_stream(42, 1).random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 7, 12, 101])
    def test_skip_uniforms_positions_exactly(self, start):
        ref = rng.mode_stream(9, 2).random(start + 16)
        got = rng.mode_uniforms(9, 2, 16, start=start)
        assert np.array_equal(ref[start:], got)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="seed"):
            rng.check_seed(-1)
        with pytest.raises(ValueError, match="seed"):
            rng.check_seed(1.5)
        with pytest.raises(ValueError, match="seed"):
            rng.check_seed(True)
        assert rng.check_seed(np.int64(3)) == 3


class TestBoxMuller:
    def test_known_values(self):
        u, v = rng.boxmuller(0.5, 0.25)
        r = np.sqrt(-2 * np.log(0.5))
        assert u == pytest.approx(r * np.cos(np.pi / 2), abs=1e-15)
        assert v == pytest.approx(r * np.sin(np.pi / 2))

    def test_moments(self):
        gen = rng.mode_stream(0, 0)
        uni = gen.random((200_000, 2))
        u, v = rng.boxmuller(uni[:, 0], uni[:, 1])
        for x in (u, v):
            assert abs(np.mean(x)) < 4 / np.sqrt(x.size)
            assert abs(np.var(x) - 1.0) < 0.02
        # independence
        assert abs(np.mean(u * v)) < 5 / np.sqrt(u.size)
