"""Reproducible per-mode random streams and the uniform -> (cos, sin) transform.

Every mode of a grid owns an independent counter-based stream: a Philox
bit generator keyed by numpy's SeedSequence(seed, spawn_key=(mode_index,))
key. numpy hashes the seed (SeedSequence(seed).pool); mode_keys hashes
only the spawn words and the output words, all modes in one vectorized
pass. position sets a reused generator (generator(): a fixed seed
sequence, no OS entropy) to any key and draw count by assigning its state.
Draws are blocked by realization index: realization j of a
random-phase field consumes uniform j of each mode stream, and realization
j of a complex-Gaussian field consumes uniforms (2j, 2j+1). The fixed block
layout means any single mode, any realization row, or any contiguous slice
of an ensemble can be reproduced without drawing the rest, and results do
not depend on how work is partitioned across workers.

Normal deviates use the Box-Muller construction, which maps exactly two
uniforms to one (u, v) pair; its fixed consumption is what makes the block
indexing possible. Both the Boyer phase and the Box-Muller angle are
2 pi U, and unit_circle turns U into (cos 2 pi U, sin 2 pi U) by the
half-angle form t = tan(pi U). This transform is stream layout 2 (the
rng_layout of a run's manifest): layout 1 called np.cos and np.sin, on the
same uniforms.
"""

from __future__ import annotations

import numpy as np

STREAM_LAYOUT = 2    # the rng_layout of a run's manifest (module docstring)

# uniforms consumed per realization, per mode
BLOCK_PHASE = 1      # one phase draw
BLOCK_NORMAL_PAIR = 2  # Box-Muller pair

_PHILOX_DRAWS_PER_BLOCK = 4  # Philox draws per counter step (its buffer holds 4)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# numpy's SeedSequence (O'Neill's seed_seq hash): pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _hashmix(value, const, mult):
    """SeedSequence's hashmix: value ^= const, const *= mult, value *= const,
    value ^= value >> 16, modulo 2^32, on uint64 arrays, which broadcast: a
    column of four successive constants hashes one word four times at once."""
    value = value ^ const
    value = value * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _constants(const, mult):
    """The hash constants of _POOL_SIZE successive hashmix steps from
    const, as a uint64 column."""
    return np.array([[const * pow(mult, j, 1 << 32) & _MASK32] for j in range(_POOL_SIZE)],
                    np.uint64)


def mode_keys(seed: int, modes) -> np.ndarray:
    """The (len(modes), 2) uint64 Philox keys of
    SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64), i in modes.

    numpy's SeedSequence(seed).pool is the seed's hashed pool, the same for
    every mode; its hashmix steps, 16 plus 4 per seed word past the fourth,
    fix the next hash constant. SeedSequence then hashes the spawn word i
    into every pool word and hashes the pool into four output words. Those
    two steps run on a (4, len(modes)) uint64 array, all modes at once.
    """
    spawn = np.asarray(modes)
    if spawn.dtype.kind not in "iuO":
        raise ValueError(f"mode indices must be integers, got {spawn.dtype}")
    bad = spawn[(spawn < 0) | (spawn > _MASK32)]
    if bad.size:   # a larger index would take two spawn words
        raise ValueError(f"mode index {bad.flat[0]} is outside [0, 2**32)")
    seed = check_seed(seed)
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - _POOL_SIZE), 1 << 32) & _MASK32
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    pool = _mix(pool, _hashmix(spawn.astype(np.uint64), _constants(const, _MULT_A), _MULT_A))
    out = _hashmix(pool, _constants(_INIT_B, _MULT_B), _MULT_B)   # generate_state's words
    keys = np.empty((len(spawn), 2), np.uint64)
    keys[:, 0] = out[0] | out[1] << 32   # little end first
    keys[:, 1] = out[2] | out[3] << 32
    return keys


def position(gen: np.random.Generator, key, n: int) -> np.random.Generator:
    """Set gen's Philox to the stream of ``key`` as if its first n uniform
    doubles had been drawn: counter n // 4 with an empty buffer, which is
    what Philox.advance(n // 4) leaves on a fresh stream, then the n % 4
    remaining draws."""
    if n < 0:
        raise ValueError("cannot skip a negative number of draws")
    blocks, rem = divmod(n, _PHILOX_DRAWS_PER_BLOCK)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [blocks >> s & _MASK64 for s in (0, 64, 128, 192)], "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": _PHILOX_DRAWS_PER_BLOCK,
        "has_uint32": 0, "uinteger": 0}
    if rem:
        gen.random(rem)
    return gen


class _ZeroSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence of zero words; position() assigns the whole state."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


def generator() -> np.random.Generator:
    """A Generator on a Philox for position() to set to a stream. Its seed
    sequence is fixed, so building it reads no OS entropy."""
    return np.random.Generator(np.random.Philox(_ZeroSeed()))


def mode_stream(seed: int, mode_index: int, start: int = 0) -> np.random.Generator:
    """The stream of one mode of one seeded experiment, positioned after
    its first ``start`` uniforms."""
    return position(generator(), mode_keys(seed, [mode_index])[0], start)


def mode_uniforms(seed: int, mode_index: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform doubles [start, start+count) of one mode stream."""
    return mode_stream(seed, mode_index, start).random(count)


def unit_circle(u, out=None):
    """(cos 2 pi u, sin 2 pi u) for uniforms u in [0, 1), by the half-angle form.

    With t = tan(pi u): cos = (1 - t^2) / (1 + t^2), sin = 2t / (1 + t^2).
    One tan and a few arithmetic passes cost far less than np.cos plus
    np.sin, and agree with them to about 2e-16. pi u < pi, so t is finite
    (|t| <= 1.7e16) and both results lie in [-1, 1].

    ``out``, a C-contiguous float array of shape (3, *u.shape), takes cos,
    sin and 1 + t^2 in its rows, so a caller can reuse one buffer; without
    it a new one is allocated. tan runs on a contiguous row either way:
    numpy's loop for a strided array can round differently.
    """
    if out is None:
        out = np.empty((3, *np.shape(u)))   # 0-d rows for a scalar u: every step is in place
    cos, t, den = out[0, ...], out[1, ...], out[2, ...]
    np.multiply(u, np.pi, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=cos)
    np.add(cos, 1.0, out=den)
    np.subtract(1.0, cos, out=cos)
    cos /= den
    t += t
    t /= den
    return cos, t


def boxmuller(u1, u2, out=None):
    """Map uniform pairs in [0, 1) to independent standard normal pairs.

    u = r cos(2 pi u2), v = r sin(2 pi u2) with r = sqrt(-2 ln(1 - u1));
    (cos, sin) come from unit_circle. ``out``, a C-contiguous float array
    of shape (4, *shape of the pairs), takes u and v in rows 0 and 1 and
    uses rows 2 and 3 as scratch; without it a new one is allocated.
    """
    if out is None:
        out = np.empty((4, *np.broadcast_shapes(np.shape(u1), np.shape(u2))))
    r = out[3, ...]
    np.negative(u1, out=r)
    np.log1p(r, out=r)   # on a contiguous row, like tan in unit_circle
    r *= -2.0
    np.sqrt(r, out=r)
    x, y = unit_circle(u2, out[:3])
    x *= r
    y *= r
    return x, y
