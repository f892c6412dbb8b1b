"""Exact path operations against a scalar Fraction reference.

Exact arrays hold Python ints on one power of two per array. The reference
below works one Fraction at a time, so it shares no code with the array
layer. Paths mix exponents from -1600 to 64 within one array, and mantissas
beyond 2^63, so a wrong shift, a lost exponent or an int64 cast shows.
"""

import json
import operator
import sys
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from skorokhod2d import serialize
from skorokhod2d.dyadic import Dyadic, DyadicArray, to_dyadic
from skorokhod2d.errors import ExactnessError, UsageError
from skorokhod2d.paths import (
    EXACT,
    PLPath2,
    jordan_decompose,
    matrix_apply,
    minus_part,
    path_min,
    plus_part,
    refine,
    stieltjes,
    sup_distance,
    with_times,
)
from skorokhod2d.verifier import Sector, _sectors

EXPONENTS = st.integers(min_value=-1600, max_value=64)


def dyadics(bits: int = 70):
    return st.builds(Dyadic, st.integers(-(2**bits), 2**bits), EXPONENTS)


@st.composite
def grids(draw, start=None, end=None, size=(2, 6)):
    """Ascending dyadic times with mixed exponents; optional fixed ends."""
    inner = draw(st.lists(dyadics(8), min_size=size[0], max_size=size[1]))
    ts = set(inner) | {t for t in (start, end) if t is not None}
    if start is not None:
        ts = {t for t in ts if t >= start}
    if end is not None:
        ts = {t for t in ts if t <= end}
    ts = sorted(ts, key=Dyadic.as_fraction)
    if len(ts) < 2:
        ts = [Dyadic(0), Dyadic(1)] if start is None else [start, end]
    return ts


@st.composite
def paths(draw, grid=None):
    ts = grid if grid is not None else draw(grids())
    return PLPath2(ts, [(draw(dyadics()), draw(dyadics())) for _ in ts], EXACT)


@st.composite
def offsets(draw, n):
    """n points (c1 * s1, c2 * s2) with s in {-1, 0, 1}: a path through them
    crosses zero only at segment midpoints, so its crossings are dyadic."""
    c = [abs(draw(dyadics())) + Dyadic(1, -1600) for _ in range(2)]
    signs = st.sampled_from([-1, 0, 1])
    return [(c[0] * draw(signs), c[1] * draw(signs)) for _ in range(n)]


def with_midpoints(ts):
    return sorted(set(ts) | {(a + b) * Dyadic(1, -1) for a, b in zip(ts, ts[1:])},
                  key=Dyadic.as_fraction)


@st.composite
def path_pairs(draw):
    """Two paths on one domain: q on a random grid (p is then rarely dyadic on
    it), on p's grid with its midpoints added, or q = p - offsets."""
    p = draw(paths())
    kind = draw(st.sampled_from(["random", "midpoints", "offsets"]))
    if kind == "random":
        return p, draw(paths(draw(grids(p.t[0], p.t[-1]))))
    if kind == "midpoints":
        return p, draw(paths(with_midpoints(p.times)))
    d = draw(offsets(len(p)))
    return p, PLPath2(p.times, [(a - c, b - e) for (a, b), (c, e) in zip(p.values, d)], EXACT)


@st.composite
def signed_paths(draw):
    """A random path, or one through `offsets`."""
    p = draw(paths())
    return p if draw(st.booleans()) else PLPath2(p.times, draw(offsets(len(p))), EXACT)


# --- the scalar reference -------------------------------------------------------


def fr(p):
    """(times, values) of a path as Fractions."""
    return ([t.as_fraction() for t in p.times],
            [tuple(x.as_fraction() for x in v) for v in p.values])


def ref_eval(ts, xs, s):
    i = bisect_left(ts, s)
    if ts[i] == s:
        return xs[i]
    w = (s - ts[i - 1]) / (ts[i] - ts[i - 1])
    return tuple(a + w * (b - a) for a, b in zip(xs[i - 1], xs[i]))


def dyadic(x: Fraction) -> bool:
    return x.denominator & (x.denominator - 1) == 0


def ref_regrid(p, grid):
    ts, xs = p
    return grid, [ref_eval(ts, xs, s) for s in grid]


def ref_union(*ps):
    return sorted(set().union(*(p[0] for p in ps)))


def ref_crossings(grid, d):
    """Times where a coordinate of d (one row per grid time) strictly changes sign."""
    out = set()
    for j in (0, 1):
        for i in range(len(grid) - 1):
            d0, d1 = d[i][j], d[i + 1][j]
            if d0 * d1 < 0:
                out.add(grid[i] + (grid[i + 1] - grid[i]) * d0 / (d0 - d1))
    return out


def check_equal(path, ref):
    got, want = fr(path), (list(ref[0]), [tuple(v) for v in ref[1]])
    if got != want:  # pytest's diff of 1600-bit Fractions would take minutes
        pytest.fail(f"times equal: {got[0] == want[0]}; values equal: {got[1] == want[1]}")


def all_dyadic(*refs) -> bool:
    return all(dyadic(x) for ts, xs in refs for x in [*ts, *(y for v in xs for y in v)])


def expect(fn, want, *needed):
    """fn() equals the reference path `want`, or raises ExactnessError when a
    number the operation computes on the way (`needed` paths) is not dyadic."""
    if all_dyadic(want, *needed):
        check_equal(fn(), want)
    else:
        with pytest.raises(ExactnessError):
            fn()


# --- properties ---------------------------------------------------------------

# no explain phase: it formats a failure's traceback once per variant it
# tries, which takes minutes on these examples
SETTINGS = settings(max_examples=60, deadline=None,
                    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])


@SETTINGS
@given(path_pairs())
def test_refine_and_with_times_match_the_reference(pq):
    p, q = (fr(x) for x in pq)
    grid = ref_union(p, q)
    want = [ref_regrid(x, grid) for x in (p, q)]
    expect(lambda: refine(*pq)[0], want[0], want[1])
    expect(lambda: refine(*pq)[1], want[1], want[0])
    expect(lambda: with_times(pq[0], [Dyadic.from_fraction(t) for t in grid]), want[0])


@SETTINGS
@given(path_pairs())
def test_path_min_matches_the_reference(pq):
    p, q = (fr(x) for x in pq)
    union = ref_union(p, q)
    d = [tuple(a - b for a, b in zip(u, v))
         for u, v in zip(ref_regrid(p, union)[1], ref_regrid(q, union)[1])]
    grid = sorted(set(union) | ref_crossings(union, d))
    p, q = ref_regrid(p, grid), ref_regrid(q, grid)
    expect(lambda: path_min(*pq), (grid, [tuple(map(min, u, v)) for u, v in zip(p[1], q[1])]), p, q)


@SETTINGS
@given(signed_paths(), st.sampled_from([1, -1]))
def test_parts_match_the_reference(u, sign):
    p = fr(u)
    grid = sorted(set(p[0]) | ref_crossings(*p))
    ts, xs = ref_regrid(p, grid)
    part = plus_part if sign > 0 else minus_part
    expect(lambda: part(u), (ts, [tuple(max(sign * x, 0) for x in v) for v in xs]), (ts, xs))


@SETTINGS
@given(paths())
def test_jordan_decompose_matches_the_reference(u):
    ts, xs = fr(u)
    m, mbar = [(Fraction(0), Fraction(0))], [(Fraction(0), Fraction(0))]
    for v0, v1 in zip(xs, xs[1:]):
        d = [b - a for a, b in zip(v0, v1)]
        m.append(tuple(s + max(x, 0) for s, x in zip(m[-1], d)))
        mbar.append(tuple(s + max(-x, 0) for s, x in zip(mbar[-1], d)))
    dec = jordan_decompose(u)
    check_equal(dec.m, (ts, m))
    check_equal(dec.mbar, (ts, mbar))


@SETTINGS
@given(paths(), dyadics(), dyadics())
def test_matrix_apply_matches_the_reference(u, a1, a2):
    ts, xs = fr(u)
    f1, f2 = a1.as_fraction(), a2.as_fraction()
    check_equal(matrix_apply(a1, a2, u), (ts, [(x + f1 * y, f2 * x + y) for x, y in xs]))


@SETTINGS
@given(path_pairs(), st.sampled_from([0, 1]))
def test_stieltjes_and_sup_distance_match_the_reference(pq, j):
    g, u = pq
    m = jordan_decompose(u).m  # a nondecreasing integrator
    grid = ref_union(fr(g), fr(m))
    (_, gv), (_, mv) = ref_regrid(fr(g), grid), ref_regrid(fr(m), grid)
    want = sum((gv[i][j] + gv[i + 1][j]) * (mv[i + 1][j] - mv[i][j]) / 2
               for i in range(len(grid) - 1))
    expect(lambda: PLPath2([0, 1], [(stieltjes(g, m, j), 0)] * 2, EXACT),
           ([0, 1], [(want, 0)] * 2), (grid, gv), (grid, mv))
    grid = ref_union(*map(fr, pq))
    (_, pv), (_, qv) = (ref_regrid(fr(x), grid) for x in pq)
    want = max(abs(a - b) for u, v in zip(pv, qv) for a, b in zip(u, v))
    expect(lambda: PLPath2([0, 1], [(sup_distance(*pq), 0)] * 2, EXACT),
           ([0, 1], [(want, 0)] * 2), (grid, pv), (grid, qv))


def ref_sector(u1, u2):
    if u2 > 0 and -u2 < u1 <= u2:
        return Sector.N
    if u1 > 0 and -u1 <= u2 < u1:
        return Sector.E
    if u2 < 0 and u2 <= u1 < -u2:
        return Sector.S
    if u1 < 0 and u1 < u2 <= -u1:
        return Sector.W
    return Sector.Origin


@SETTINGS
@given(paths(), st.lists(st.sampled_from([(1, 1), (1, -1), (-1, 1), (0, 1), (1, 0), (0, 0)])))
def test_sectors_match_the_reference(u, rays):
    # rays put points on the sector boundaries, with the path's own exponents
    pts = list(u.values) + [(a * v[0], b * v[0]) for (a, b), v in zip(rays, u.values)]
    p = PLPath2([Dyadic(i) for i in range(len(pts))], pts, EXACT)
    assert _sectors(p.x) == tuple(ref_sector(a.as_fraction(), b.as_fraction()) for a, b in pts)


def frs(a):
    """Fractions of a DyadicArray or Dyadic, nested as the array is."""
    return a.as_fraction() if isinstance(a, Dyadic) else [frs(x) for x in a]


SCALAR_OPS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.lt,
              operator.le, operator.gt, operator.ge, operator.eq, operator.ne]

#: right operands beside the drawn ones: zero, divisors of -2^k, ints beyond
#: 2^63, Fractions (one not dyadic) and floats
OPERANDS = [0, -1, -(2**5), 2**64 + 1, -(2**70), Dyadic(-1, -5), Fraction(-3, 4),
            Fraction(1, 3), 0.375, -0.0, -1e300]


def outcome(fn):
    """fn()'s value (Fractions, a bool, or a list of either for an array), or
    the type and message of the exactness or zero-division error it raises."""
    try:
        r = fn()
    except (ExactnessError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(r, np.ndarray):
        return [bool(v) for v in r]
    assert isinstance(r, (bool, Dyadic, DyadicArray)), type(r)
    return r if isinstance(r, bool) else frs(r)


def reference(op, a, b):
    """op on Fractions; the error type where the dyadic operation must raise."""
    if not all(map(dyadic, (a, b))):
        return ExactnessError  # an operand that is not dyadic
    if op is operator.truediv and b == 0:
        return ZeroDivisionError
    r = op(a, b)
    return ExactnessError if isinstance(r, Fraction) and not dyadic(r) else r


def check_scalar_op(op, x, y):
    """op(x, y) and op(y, x) for a Dyadic x: the scalar result, the result on
    a one-element DyadicArray and the Fraction reference agree, and so do the
    scalar and array errors."""
    fx, fy = x.as_fraction(), y.as_fraction() if isinstance(y, Dyadic) else Fraction(y)
    for order in (lambda v, w: (v, w), lambda v, w: (w, v)):
        scalar = outcome(lambda: op(*order(x, y)))
        array = outcome(lambda: op(*order(DyadicArray.of([x]), y)))
        want = reference(op, *order(fx, fy))
        if isinstance(scalar, tuple):
            assert scalar[0] is want and array == scalar, (op, order(x, y))
        else:
            assert scalar == want and array == [want], (op, order(x, y))


@SETTINGS
@given(st.lists(st.tuples(dyadics(), dyadics()), min_size=1, max_size=6), dyadics())
def test_array_operations_match_fractions(pairs, s):
    # the two arrays get different shared exponents; s is a scalar operand
    a, b = (DyadicArray.of([p[k] for p in pairs]) for k in (0, 1))
    fa, fb, fs = frs(a), frs(b), s.as_fraction()
    assert frs(a + b) == [x + y for x, y in zip(fa, fb)]
    assert frs(a - s) == [x - fs for x in fa] and frs(s - a) == [fs - x for x in fa]
    assert frs(a * b) == [x * y for x, y in zip(fa, fb)] and frs(s * a) == [fs * x for x in fa]
    assert frs(-a) == [-x for x in fa] and frs(abs(a)) == [abs(x) for x in fa]
    assert frs(np.maximum(a, b)) == list(map(max, fa, fb))
    assert frs(np.minimum(a, s)) == [min(x, fs) for x in fa]
    assert list(a < b) == [x < y for x, y in zip(fa, fb)]
    assert list(a >= s) == [x >= fs for x in fa]
    assert list(a == b) == [x == y for x, y in zip(fa, fb)]
    assert frs(np.where(a < b, a, b)) == list(map(min, fa, fb))
    assert frs(np.concatenate([a, b])) == fa + fb
    assert frs(np.column_stack([a, b])) == [[x, y] for x, y in zip(fa, fb)]
    assert frs(np.sort(a)) == sorted(fa)
    assert list(np.searchsorted(np.sort(a), b)) == [bisect_left(sorted(fa), y) for y in fb]
    assert frs(np.cumsum(a)) == [sum(fa[:i + 1]) for i in range(len(fa))]
    assert frs(np.diff(a)) == [y - x for x, y in zip(fa, fa[1:])]
    assert frs(np.max(a)) == max(fa) and frs(np.min(b)) == min(fb)
    assert frs(np.sum(a, initial=s)) == sum(fa) + fs
    prod = [Fraction(1)]
    for x in fa:
        prod.append(prod[-1] * x)
    assert frs(np.cumprod(a)) == prod[1:]
    nonzero = [y for y in fb if y]
    if nonzero:
        d = DyadicArray.of([Dyadic.from_fraction(y) for y in nonzero])
        q = [x / y for x, y in zip(fa, nonzero)]
        if all(dyadic(x) for x in q):
            assert frs(a[:len(nonzero)] / d) == q
        else:
            with pytest.raises(ExactnessError):
                a[:len(nonzero)] / d
    for d in [s, -1, -2, Dyadic(-1, -5), Dyadic(3, -2)]:  # scalar divisors, signs included
        fd = Fraction(d) if isinstance(d, int) else d.as_fraction()
        if not fd:
            continue
        q = [x / fd for x in fa]
        if all(dyadic(x) for x in q):
            assert frs(a / d) == q
        else:
            with pytest.raises(ExactnessError):
                a / d
    c = a[:]
    c[1:] = b[1:]  # assignment from an array on another exponent
    assert frs(c) == fa[:1] + fb[1:]
    # Dyadic scalars run on the same kernels: forward and reflected operators
    # against Dyadic, int, Fraction and float
    for x in (pairs[0][0], Dyadic(0), Dyadic(2**64 + 1, -3)):
        for y in (s, pairs[-1][1], *OPERANDS):
            for op in SCALAR_OPS:
                check_scalar_op(op, x, y)


# --- exactness and width ------------------------------------------------------


def test_interpolation_at_a_non_dyadic_ratio_raises():
    p = PLPath2([0, 3], [(0, 0), (1, 1)], EXACT)
    with pytest.raises(ExactnessError):
        p.eval(1)
    with pytest.raises(ExactnessError):
        with_times(p, [0, 1, 3])
    # a non-dyadic ratio times an increment it divides is dyadic
    q = PLPath2([0, 3], [(0, 0), (3, -6)], EXACT)
    assert q.eval(1) == (Dyadic(1), Dyadic(-2))
    assert with_times(q, [0, 1, 2, 3]).values[1:3] == ((1, -2), (2, -4))


def test_values_beyond_int64_survive_paths_and_json():
    big = [(2**63, -(2**70) + 1), (2**64 + 1, 3), (-(2**63) - 1, Dyadic(2**65 + 1, -1600))]
    p = PLPath2([0, Dyadic(1, -1600), 2**64], big, EXACT)
    assert p.values == tuple(tuple(Dyadic(x) if isinstance(x, int) else x for x in v) for v in big)
    again = serialize.path_from_json(json.loads(json.dumps(serialize.path_to_json(p))))
    assert again.times == p.times and again.values == p.values
    # an int64 array means its integers, and arithmetic on them does not wrap
    q = PLPath2(p.t, np.full((3, 2), 2**62, dtype=np.int64), EXACT)
    assert q.x.m.dtype == object
    assert matrix_apply(4, 4, q).values == ((Dyadic(5 * 2**62),) * 2,) * 3
    # numpy integers are exact integers, in a list as in an array
    three = np.int64(3)
    assert to_dyadic(three) == 3 and frs(DyadicArray.of([three])) == [3]
    assert frs(DyadicArray.of([1, 2]) * three) == [3, 6]
    r = PLPath2([0, np.int64(1)], [[0, 0], [1, 1]], EXACT)
    assert r.times == (0, 1) and r.values == PLPath2(np.array([0, 1]), [[0, 0], [1, 1]], EXACT).values


def test_malformed_exact_array_inputs_raise():
    with pytest.raises(UsageError):
        PLPath2([0, 1], [(0, 0), (0, 0), (0, 0)], EXACT)
    for flag in (True, np.True_):
        with pytest.raises(TypeError):
            PLPath2([0, 1], [(0, 0), (flag, 0)], EXACT)
        with pytest.raises(TypeError):
            to_dyadic(flag)


def test_a_paths_arrays_are_read_only():
    p = PLPath2([0, 1], [(1, 2), (3, 4)], EXACT)
    q = PLPath2(p.t, p.x, EXACT)  # shares p's arrays
    for a in (p.t, p.x):
        index = (0,) * a.ndim
        # a value on the array's exponent, and one that needs a lower exponent
        for v in (Dyadic(1, a.e), Dyadic(1, a.e - 1)):
            with pytest.raises(ValueError):
                a[index] = v
    assert p.values == q.values == ((1, 2), (3, 4)) and p.times == (0, 1)


def test_json_decode_refuses_an_array_too_wide_to_hold():
    wide = {"mode": EXACT, "times": [{"m": "0", "e": 0}, {"m": "1", "e": 0}],
            "values": [[{"m": "1", "e": -(serialize.MAX_EXACT_BITS // 3)}, {"m": "1", "e": 0}],
                       [{"m": "1", "e": 0}, {"m": "0", "e": 0}]]}
    with pytest.raises(UsageError, match="too wide"):
        serialize.path_from_json(wide)
    # the same spread on fewer scalars, and zeros on any exponent, decode
    wide["values"][1] = [{"m": "0", "e": -(2**40)}, {"m": "0", "e": 0}]
    wide["values"][0][0]["e"] = -(serialize.MAX_EXACT_BITS // 4)
    p = serialize.path_from_json(wide)
    assert p.values[0] == (Dyadic(1, -(serialize.MAX_EXACT_BITS // 4)), Dyadic(1))
    assert p.values[1] == (0, 0)


def _limit_or_skip() -> int:
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter converts ints to strings of any length")
    return limit


def _one_way_and_back(p: PLPath2, values: list) -> str:
    # encode p, and decode the hand-written document of p (its values given as
    # (mantissa text, exponent) pairs): both refuse it with one short
    # message, or p comes back bit for bit
    doc = {"mode": EXACT, "times": [{"m": "0", "e": 0}, {"m": "1", "e": 0}],
           "values": [[{"m": m, "e": e} for m, e in v] for v in values]}
    try:
        encoded = serialize.path_to_json(p)
    except UsageError as err:
        with pytest.raises(UsageError) as back:
            serialize.path_from_json(doc)
        assert str(back.value) == str(err) and len(str(err)) < 200
        return str(err)
    assert encoded == doc
    q = serialize.path_from_json(json.loads(json.dumps(encoded)))
    assert q.times == p.times and q.values == p.values
    return ""


@pytest.mark.parametrize("sign", ["", "-"])
def test_json_range_of_mantissa_digits(sign):
    # the interpreter's int-string limit bounds the encoder and the decoder
    limit = _limit_or_skip()
    # odd mantissas, so canonical; their texts are written out, as str()
    # refuses the one past the limit
    inside = (10**limit - 1, "9" * limit)
    past = (10**limit + 1, "1" + "0" * (limit - 1) + "1")
    for (m, text), refused in [(inside, False), (past, True)]:
        p = PLPath2([0, 1], [(1, 1), (1, m if sign == "" else -m)], EXACT)
        message = _one_way_and_back(p, [[("1", 0), ("1", 0)], [("1", 0), (sign + text, 0)]])
        assert message == ("" if not refused else
                           f"exact mantissa of {limit + 1} digits: over the interpreter's "
                           f"limit of {limit} digits for int-string conversion")


def test_json_range_of_exponent_spread():
    # four values, one on exponent -s: length times spread is 4 s
    s = serialize.MAX_EXACT_BITS // 4
    for spread, refused in [(s, False), (s + 1, True)]:
        p = PLPath2([0, 1], [(Dyadic(1, -spread), 1), (1, 1)], EXACT)
        message = _one_way_and_back(p, [[("1", -spread), ("1", 0)], [("1", 0), ("1", 0)]])
        assert message.startswith("exact array too wide: 4 scalars") == refused


def test_json_range_of_a_scalar():
    # matrix entries, tail bounds and rho are single scalars of the same range
    limit = _limit_or_skip()
    with pytest.raises(UsageError, match=f"exact mantissa of {limit + 1} digits"):
        serialize.scalar_to_json(10**limit + 1, EXACT)
    with pytest.raises(UsageError, match=f"exact mantissa of {limit + 1} digits"):
        serialize.scalar_from_json({"m": "1" * (limit + 1), "e": 0}, EXACT)
    assert serialize.scalar_from_json({"m": "-" + "1" * limit, "e": 0}, EXACT) == -(10**limit - 1) // 9
