"""Bit-identity of `solve_grid` on float drivers: pinned output hashes.

The drivers are integers from `random.Random(seed).randrange` scaled by a
power of two, on times k / 2^p, so every input is the same double on every
platform. `solve_grid` uses only elementwise float operations,
`np.add.accumulate` and Python floats, each rounded once by IEEE 754, so
its output bits are fixed too: a change to the event step, the runs or the
support rule that alters any output bit fails here. (`solve_fixed_point` is
not pinned: its rate estimate sums with `np.sum`, whose pairwise order may
differ between builds.)
"""

import hashlib
import math
import random

import pytest

from skorokhod2d.classify import ReflectionMatrix2
from skorokhod2d.paths import FLOAT, PLPath2
from skorokhod2d.solver import SolveConfig, solve_grid


def dyadic_walk(seed, log2_n, start, drift, spread, scale):
    """2^log2_n segments on [0, 1]: each coordinate starts at `start` and
    steps by drift + randrange(-spread, spread + 1), all times 2^-scale."""
    rng = random.Random(seed)
    x = y = start
    points = [(x, y)]
    for _ in range(2**log2_n):
        x += drift + rng.randrange(-spread, spread + 1)
        y += drift + rng.randrange(-spread, spread + 1)
        points.append((x, y))
    times = [math.ldexp(k, -log2_n) for k in range(2**log2_n + 1)]
    values = [(math.ldexp(a, -scale), math.ldexp(b, -scale)) for a, b in points]
    return PLPath2(times, values, FLOAT)


CASES = {
    # a walk from (1/64, 1/64) with no drift: long quiet stretches between
    # events, so most segments go as runs
    "walk": ((0.375, -0.25), dyadic_walk(0, 12, 2**8, 0, 2**6, 14),
             "c0a026b107ec62b954825b5e7cb8b7221e16bfb2c952fc948775ee37b5c817cd"),
    # walks drifting into the corner: both regulators switch on and off
    # inside segments, in quiet stretches (drift -8t) or at most segments
    # (drift -2t under four times the noise)
    "corner-0.99": ((0.99, -0.99), dyadic_walk(1, 11, 0, -2**8, 2**6, 16),
                    "275b59e4318167fe20feb17d203911ab2b8e17f9128bf0743040085389fe1fa3"),
    "critical": ((-1.0, 1.0), dyadic_walk(2, 11, 0, -2**6, 2**8, 16),
                 "fd5697997773d62088222add3f75211711759af15ecc1a3d8332291bf67aeee2"),
}


def solution_sha256(res) -> str:
    h = hashlib.sha256()
    for a in (res.g.t, res.g.x, res.m.x):
        h.update(a.astype("<f8").tobytes())  # little-endian on every platform
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_solution_hash_is_pinned(name):
    (a1, a2), f, digest = CASES[name]
    res = solve_grid(ReflectionMatrix2(a1, a2), f, SolveConfig())
    assert len(res.g.t) > len(f.t)  # events inside segments joined the grid
    assert solution_sha256(res) == digest
