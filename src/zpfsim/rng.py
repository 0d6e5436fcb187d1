"""Reproducible per-mode random streams and the uniform -> (cos, sin) transform.

Every mode of a grid owns an independent counter-based stream, derived from
(seed, mode_index) through SeedSequence spawn keys on top of the Philox
bit generator. Draws are blocked by realization index: realization j of a
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

# uniforms consumed per realization, per mode
BLOCK_PHASE = 1      # one phase draw
BLOCK_NORMAL_PAIR = 2  # Box-Muller pair

_PHILOX_DRAWS_PER_BLOCK = 4  # Philox advance() moves the counter in 4-draw blocks


def check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def mode_stream(seed: int, mode_index: int) -> np.random.Generator:
    """Independent stream for one mode of one seeded experiment."""
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=(int(mode_index),))
    return np.random.Generator(np.random.Philox(ss))


def skip_uniforms(gen: np.random.Generator, n: int) -> np.random.Generator:
    """Position a fresh stream as if n uniform doubles had been drawn."""
    if n < 0:
        raise ValueError("cannot skip a negative number of draws")
    blocks, rem = divmod(n, _PHILOX_DRAWS_PER_BLOCK)
    if blocks:
        gen.bit_generator.advance(blocks)
    if rem:
        gen.random(rem)
    return gen


def mode_uniforms(seed: int, mode_index: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform doubles [start, start+count) of one mode stream."""
    gen = mode_stream(seed, mode_index)
    skip_uniforms(gen, start)
    return gen.random(count)


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
