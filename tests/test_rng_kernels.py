import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from zpfsim import kernels, rng


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
    def test_mode_uniforms_at_start(self, start):
        ref = rng.mode_stream(9, 2).random(start + 16)
        got = rng.mode_uniforms(9, 2, 16, start=start)
        assert np.array_equal(ref[start:], got)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128,
                                      2**200, 2**999 + 12345],
                             ids=["0", "1", "2^32-1", "2^32", "2^64+5", "2^128-1", "2^128",
                                  "2^200", "1000-bit"])
    def test_mode_keys_are_seed_sequence_keys(self, seed):
        modes = [0, 1, 2**31, 2**32 - 1]
        ref = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
               for i in modes]
        keys = rng.mode_keys(seed, np.array(modes, dtype=np.int64))
        assert keys.dtype == np.uint64 and np.array_equal(keys, ref)
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(7,))))
        assert np.array_equal(rng.mode_stream(seed, 7).random(9), ref.random(9))

    def test_generator_reads_no_os_entropy(self, monkeypatch):
        def os_entropy(bits):
            raise AssertionError("OS entropy read")
        # an unseeded SeedSequence draws its entropy through bit_generator.randbits
        monkeypatch.setattr(np.random.bit_generator, "randbits", os_entropy)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.SeedSequence()
        assert isinstance(rng.generator(), np.random.Generator)
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(6, spawn_key=(2,))))
        assert np.array_equal(rng.mode_stream(6, 2, start=3).random(5), ref.random(8)[3:])

    @pytest.mark.parametrize("index", [-1, 2**32, 2**70])
    def test_mode_index_outside_one_spawn_word(self, index):
        with pytest.raises(ValueError, match=f"mode index {index} "):
            rng.mode_keys(3, [0, index])
        with pytest.raises(ValueError, match=f"mode index {index} "):
            rng.mode_stream(3, index)

    @pytest.mark.parametrize("modes", [[0.5], [0.0, 1.0], ["1"]])
    def test_mode_indices_must_be_integers(self, modes):
        with pytest.raises(ValueError, match="mode indices must be integers"):
            rng.mode_keys(3, modes)

    @pytest.mark.parametrize("n", [0, 5, 4 * 2**64 + 6])
    def test_position_is_advance_and_remainder(self, n):
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(4, spawn_key=(1,))))
        ref.bit_generator.advance(n // 4)
        ref.random(n % 4)
        gen = rng.position(rng.mode_stream(8, 0), rng.mode_keys(4, [1])[0], n)
        assert np.array_equal(gen.random(9), ref.random(9))

    def test_position_refuses_negative_count(self):
        with pytest.raises(ValueError, match="negative number of draws"):
            rng.position(rng.mode_stream(8, 0), rng.mode_keys(4, [1])[0], -1)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="seed"):
            rng.check_seed(-1)
        with pytest.raises(ValueError, match="seed"):
            rng.check_seed(1.5)
        with pytest.raises(ValueError, match="seed"):
            rng.check_seed(True)
        assert rng.check_seed(np.int64(3)) == 3
        with pytest.raises(ValueError, match="seed"):
            rng.mode_keys(-1, [0])


class TestUnitCircle:
    @staticmethod
    def assert_on_circle(u):
        c, s = rng.unit_circle(u)
        angle = 2.0 * np.pi * np.asarray(u)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
        assert np.all(np.abs(c) <= 1.0) and np.all(np.abs(s) <= 1.0)
        assert np.max(np.abs(c - np.cos(angle))) <= 4.5e-16
        assert np.max(np.abs(s - np.sin(angle))) <= 4.5e-16

    def test_quarter_turns_and_last_uniform(self):
        # u = 0.5 puts tan(pi u) at its largest, 1.6e16; 1 - 2^-53 is the
        # largest uniform numpy draws
        self.assert_on_circle(np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]))

    def test_seeded_uniforms(self):
        self.assert_on_circle(rng.mode_uniforms(5, 0, 1_000_000))

    def test_scalar_and_strided_input(self):
        u = rng.mode_uniforms(5, 1, 64).reshape(32, 2)
        c, s = rng.unit_circle(u[:, 1])
        for i in (0, 31):
            assert np.array_equal(rng.unit_circle(u[i, 1]), (c[i], s[i]))


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


class TestModeSum:
    def test_worker_error_reraised_after_all_ranges(self, monkeypatch):
        # three ranges of 10 rows; the one that starts at row 10 fails
        monkeypatch.setattr(kernels, "WORKERS", 3)
        monkeypatch.setattr(kernels, "MIN_ROWS", 10)
        monkeypatch.setattr(kernels, "CHUNK", 4)
        position = rng.position

        def position_or_fail(gen, key, n):
            if n == 10 * rng.BLOCK_NORMAL_PAIR:
                raise MemoryError("no room for range 2")
            return position(gen, key, n)

        monkeypatch.setattr(rng, "position", position_or_fail)
        finished = []
        sum_rows = kernels._sum_rows

        def traced(out, *args):
            sum_rows(out, *args)
            finished.append(len(out))

        monkeypatch.setattr(kernels, "_sum_rows", traced)
        threads = threading.active_count()
        coef = np.ones((4, 3))
        with pytest.raises(MemoryError, match="no room for range 2"):
            kernels.mode_sum("modified", coef, coef, range(4), 30, 1, 0)
        assert sorted(finished) == [10, 10]  # the other two ranges ran to the end
        assert threading.active_count() == threads

    def test_workers_keep_callers_errstate(self, monkeypatch):
        # numpy's error state is a context variable, which a new thread does
        # not inherit: each range must still raise where its caller does
        monkeypatch.setattr(kernels, "WORKERS", 3)
        monkeypatch.setattr(kernels, "MIN_ROWS", 10)
        sum_rows, states = kernels._sum_rows, []

        def traced(out, *args):
            states.append((threading.get_ident(), np.geterr()["over"]))
            sum_rows(out, *args)

        monkeypatch.setattr(kernels, "_sum_rows", traced)
        coef = np.ones((4, 3))
        with np.errstate(over="raise"):
            kernels.mode_sum("boyer", coef, coef, range(4), 30, 1, 0)
        idents = {ident for ident, _ in states}   # a pool thread may take two ranges
        assert threading.get_ident() in idents and len(idents) > 1
        assert [state for _, state in states] == ["raise"] * 3
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            kernels.mode_sum("boyer", coef * 1.5e308, coef * 1.5e308, range(4), 30, 1, 0)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_one_cpu_sums_serially(self):
        code = (
            "import os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from zpfsim import kernels\n"
            "sum_rows, calls = kernels._sum_rows, []\n"
            "def traced(out, *args):\n"
            "    calls.append(threading.get_ident())\n"
            "    sum_rows(out, *args)\n"
            "kernels._sum_rows = traced\n"
            "coef = np.ones((2, 3))\n"
            "kernels.mode_sum('boyer', coef, coef, range(2), 4 * kernels.MIN_ROWS, 1, 0)\n"
            "print(kernels.WORKERS, calls == [threading.get_ident()], threading.active_count())\n"
        )
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stdout.split() == ["1", "True", "1"]

    @pytest.mark.parametrize("kind", ["boyer", "modified"])
    @pytest.mark.parametrize("modes, n, chunk, mode_block", [
        (36, 50, 7, 35),      # 5-mode blocks and a 1-mode tail block; a 1-row tail chunk
        (36, 50, 7, 7),       # 1-mode blocks
        (36, 5, 7, 10**6),    # one block of all modes, shorter than a chunk
        (160, 20000, None, None),  # the module's own constants
    ], ids=["split-modes", "one-mode", "all-modes", "constants"])
    def test_one_accumulate_call_per_block(self, monkeypatch, kind, modes, n, chunk,
                                           mode_block):
        monkeypatch.setattr(kernels, "WORKERS", 1)
        if chunk is not None:
            monkeypatch.setattr(kernels, "CHUNK", chunk)
            monkeypatch.setattr(kernels, "MODE_BLOCK", mode_block)
        name = "accumulate_normal" if kind == "modified" else "accumulate_phase"
        accumulate, sizes = getattr(kernels, name), []

        def traced(out, uniforms, *args):
            sizes.append(len(uniforms))
            accumulate(out, uniforms, *args)

        monkeypatch.setattr(kernels, name, traced)
        coef = np.ones((modes, 3))
        kernels.mode_sum(kind, coef, coef, range(modes), n, 2, 0)
        rows = min(kernels.CHUNK, n)
        per_block = kernels.MODE_BLOCK // rows   # modes
        assert len(sizes) == math.ceil(modes / per_block) * math.ceil(n / rows)
        assert sum(sizes) == modes * n

    def test_memory_is_output_plus_fixed_buffers(self, monkeypatch):
        # osc-ensemble's shape: 1152 modes x 12 000 rows, on two threads
        monkeypatch.setattr(kernels, "WORKERS", 2)
        gen = np.random.default_rng(4)
        coef_a, coef_b = gen.normal(size=(1152, 3)), gen.normal(size=(1152, 3))
        tracemalloc.start()
        try:
            out = kernels.mode_sum("modified", coef_a, coef_b, range(1152), 12_000, 3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20   # block buffers: 1.5 MB per thread
