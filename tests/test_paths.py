import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skorokhod2d import serialize
from skorokhod2d.counterexample import build_counterexample, build_u
from skorokhod2d.dyadic import Dyadic, DyadicArray
from skorokhod2d.errors import DomainError, UsageError
from skorokhod2d.paths import (
    EXACT,
    FLOAT,
    FLOAT_DEDUP,
    PLPath2,
    jordan_decompose,
    matrix_apply,
    merge_times,
    minus_part,
    path_min,
    path_sub,
    plus_part,
    refine,
    stieltjes,
    sup_distance,
    with_times,
)


def exact_path(times, values):
    return PLPath2(tuple(times), tuple(values), EXACT)


def test_eval_counterexample_breakpoints():
    u = build_u(Dyadic(-2), 8)
    assert u.eval(1) == (Dyadic(-1), Dyadic(1))
    # midpoint of [1/2, 1] between (-1, -1/2) and (-1, 1)
    assert u.eval(Dyadic(3, -2)) == (Dyadic(-1), Dyadic(1, -2))


def test_eval_breakpoint_identity_and_domain():
    p = exact_path([0, 1, 2], [(0, 0), (1, -1), (3, 5)])
    for t, v in zip(p.times, p.values):
        assert p.eval(t) == v
    with pytest.raises(DomainError):
        p.eval(3)
    with pytest.raises(DomainError):
        p.eval(-1)


def test_with_times_refuses_out_of_domain_times_in_both_modes():
    f = PLPath2((0.0, 1.0), ((0.0, 0.0), (2.0, 4.0)), FLOAT)
    with pytest.raises(DomainError):
        with_times(f, [-1.0, 0.0, 0.5, 1.0, 3.0])
    with pytest.raises(DomainError):
        with_times(f, [0.0, 1.0, 1.0 + 1e-9])
    with pytest.raises(DomainError):
        with_times(exact_path([0, 1], [(0, 0), (2, 4)]), [Dyadic(-1), 0, 1])
    # an end that is the same breakpoint as the domain end takes its value
    end = 1.0 + FLOAT_DEDUP / 4
    q = with_times(f, [0.0, 0.5, end])
    assert q.times == (0.0, 0.5, end)
    assert q.values == ((0.0, 0.0), (1.0, 2.0), (2.0, 4.0))


@pytest.mark.filterwarnings("error")
def test_interpolation_past_the_double_range_of_its_product():
    # (t - t0)(v1 - v0) = 5e5 * 1e303 overflows: the value came out inf, with
    # an overflow warning, and the path held the inf
    f = PLPath2((0.0, 1e6), ((0.0, 0.0), (1e303, 0.0)), FLOAT)
    assert with_times(f, [0.0, 5e5, 1e6]).values == ((0.0, 0.0), (5e302, 0.0), (1e303, 0.0))
    assert f.eval(5e5) == (5e302, 0.0)
    # increments past the double range too, on both coordinates at once
    g = PLPath2((0.0, 1.0), ((-1.5e308, 1.5e308), (1.5e308, -1.5e308)), FLOAT)
    assert g.eval(0.5) == (0.0, 0.0)
    assert with_times(g, [0.0, 0.25, 1.0]).values[1] == (-7.5e307, 7.5e307)


def test_finite_interpolation_keeps_the_formulas_bits():
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.random(41)) * 1e3
    x = rng.standard_normal((41, 2)) * 1e150
    s = np.sort(rng.uniform(t[0], t[-1], 200))
    q = with_times(PLPath2(t, x, FLOAT), np.concatenate([[t[0]], s, [t[-1]]]))
    i = np.searchsorted(t, s)
    formula = x[i - 1] + (s - t[i - 1])[:, None] * (x[i] - x[i - 1]) / (t[i] - t[i - 1])[:, None]
    assert np.array_equal(q.x[1:-1], formula)


def test_refine_union_grid():
    p = exact_path([0, 1], [(0, 0), (2, 2)])
    q = exact_path([0, Dyadic(1, -1), 1], [(0, 0), (1, 0), (0, 0)])
    p2, q2 = refine(p, q)
    assert p2.times == q2.times == (Dyadic(0), Dyadic(1, -1), Dyadic(1))
    assert p2.eval(Dyadic(1, -1)) == (Dyadic(1, -1) * 2, Dyadic(1))


def test_refine_idempotent_and_mode_checks():
    p = exact_path([0, 1], [(0, 0), (1, 1)])
    p2, p3 = refine(p, p)
    assert p2.times == p.times and p2.values == p.values
    q = PLPath2((0.0, 1.0), ((0.0, 0.0), (1.0, 1.0)), FLOAT)
    with pytest.raises(UsageError):
        refine(p, q)
    r = exact_path([0, 2], [(0, 0), (1, 1)])
    with pytest.raises(UsageError):
        refine(p, r)
    with pytest.raises(UsageError, match="unknown mode 'spam'"):
        PLPath2((0, 1), ((0, 0), (1, 1)), mode="spam")


def test_refine_preserves_counterexample_pair():
    u = build_u(Dyadic(-2), 8)
    ru = matrix_apply(Dyadic(-2), Dyadic(1), u)
    u2, ru2 = refine(u, ru)
    for k in range(10):
        t = Dyadic(1 + 2 * k, -5)  # random-ish dyadic times in (0, 1)
        if t < u.start_time:
            continue
        assert u2.eval(t) == u.eval(t)
        assert ru2.eval(t) == ru.eval(t)


def test_jordan_single_segment():
    p = exact_path([0, 1], [(0, 0), (2, -3)])
    d = jordan_decompose(p)
    assert d.m.values[-1] == (Dyadic(2), Dyadic(0))
    assert d.mbar.values[-1] == (Dyadic(0), Dyadic(3))
    assert d.m.eval(Dyadic(1, -1)) == (Dyadic(1), Dyadic(0))


def test_jordan_constant_path():
    p = exact_path([0, 1], [(5, 5), (5, 5)])
    d = jordan_decompose(p)
    assert all(v == (Dyadic(0), Dyadic(0)) for v in d.m.values)
    assert all(v == (Dyadic(0), Dyadic(0)) for v in d.mbar.values)


def test_jordan_counterexample_quarter_turn():
    # across [t2, t1] = [1/4, 1/2], u1 moves from 1/2 to -1: mass 3/2 on the
    # decreasing part
    u = build_u(Dyadic(-2), 8)
    d = jordan_decompose(u)
    quarter, half = Dyadic(1, -2), Dyadic(1, -1)
    inc = d.mbar.eval(half)[0] - d.mbar.eval(quarter)[0]
    assert inc == Dyadic(3, -1)
    assert d.m.eval(half)[0] - d.m.eval(quarter)[0] == 0


def test_jordan_reconstructs_path():
    u = build_u(Dyadic(-2), 12)
    d = jordan_decompose(u)
    u0 = u.values[0]
    for i in range(len(u.times)):
        for j in (0, 1):
            assert u0[j] + d.m.values[i][j] - d.mbar.values[i][j] == u.values[i][j]


def test_jordan_minimality_on_counterexample():
    u = build_u(Dyadic(-2), 12)
    d = jordan_decompose(u)
    for i in range(len(u.times) - 1):
        for j in (0, 1):
            dm = d.m.values[i + 1][j] - d.m.values[i][j]
            dmb = d.mbar.values[i + 1][j] - d.mbar.values[i][j]
            assert dm == 0 or dmb == 0


def test_min_inserts_crossing():
    p = exact_path([0, 1], [(0, 0), (1, 0)])
    q = exact_path([0, 1], [(1, 0), (0, 0)])
    m = path_min(p, q)
    assert Dyadic(1, -1) in m.times
    assert m.eval(Dyadic(1, -1))[0] == Dyadic(1, -1)
    assert m.values[0][0] == 0 and m.values[-1][0] == 0


def test_plus_part_of_negative_constant():
    p = exact_path([0, 1], [(-1, -1), (-1, -1)])
    pp = plus_part(p)
    assert all(v == (Dyadic(0), Dyadic(0)) for v in pp.values)


def test_matrix_image_and_parts_at_counterexample_end():
    u = build_u(Dyadic(-2), 8)
    ru = matrix_apply(Dyadic(-2), Dyadic(1), u)
    assert ru.eval(1) == (Dyadic(-3), Dyadic(0))
    assert plus_part(ru).eval(1) == (Dyadic(0), Dyadic(0))
    assert minus_part(ru).eval(1) == (Dyadic(3), Dyadic(0))


def test_lattice_identities_at_breakpoints():
    # p - q crosses zero at segment midpoints, so crossings stay dyadic
    p = exact_path([0, Dyadic(1, -1), 1], [(3, -2), (-1, 5), (0, 0)])
    q = exact_path([0, Dyadic(1, -1), 1], [(1, 1), (1, 2), (4, 0)])
    low = path_min(p, q)
    diff = path_sub(p, q)
    lhs1 = path_sub(p, low)
    lhs2 = path_sub(q, low)
    pp, mm = plus_part(diff), minus_part(diff)
    assert sup_distance(lhs1, pp) == 0
    assert sup_distance(lhs2, mm) == 0


def test_stieltjes_examples():
    g = exact_path([0, 1], [(0, 0), (1, 0)])
    m = exact_path([0, 1], [(0, 0), (1, 0)])
    assert stieltjes(g, m, 0) == Dyadic(1, -1)
    zero = exact_path([0, 1], [(0, 0), (0, 0)])
    assert stieltjes(zero, m, 0) == 0
    decreasing = exact_path([0, 1], [(1, 0), (0, 0)])
    with pytest.raises(UsageError):
        stieltjes(g, decreasing, 0)


def test_stieltjes_refinement_invariant():
    g = exact_path([0, 1], [(2, 0), (0, 0)])
    m = exact_path([0, 1], [(0, 0), (4, 0)])
    base = stieltjes(g, m, 0)
    fine = exact_path([0, Dyadic(1, -2), Dyadic(1, -1), 1],
                      [(0, 0), (1, 0), (2, 0), (4, 0)])
    assert stieltjes(g, fine, 0) == base == Dyadic(4)


def test_stieltjes_nonnegative_for_nonneg_integrand():
    g = exact_path([0, 1, 2], [(1, 0), (0, 0), (3, 0)])
    m = exact_path([0, 1, 2], [(0, 0), (2, 0), (2, 0)])
    assert stieltjes(g, m, 0) >= 0


def test_json_round_trip_exact_bit_identical():
    u = build_u(Dyadic(-2), 8)
    doc = serialize.path_to_json(u)
    again = serialize.path_from_json(json.loads(json.dumps(doc)))
    assert again.times == u.times and again.values == u.values
    assert serialize.path_to_json(again) == doc


small_dyadics = st.builds(
    Dyadic, st.integers(min_value=-64, max_value=64), st.integers(min_value=-6, max_value=2)
)


@st.composite
def exact_paths(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    times = [Dyadic(i) for i in range(n)]
    values = [(draw(small_dyadics), draw(small_dyadics)) for _ in range(n)]
    return PLPath2(tuple(times), tuple(values), EXACT)


@given(exact_paths())
def test_jordan_round_trip_property(u):
    d = jordan_decompose(u)
    u0 = u.values[0]
    for i in range(len(u.times)):
        for j in (0, 1):
            assert u0[j] + d.m.values[i][j] - d.mbar.values[i][j] == u.values[i][j]
            assert d.m.values[i][j] >= 0 and d.mbar.values[i][j] >= 0


@st.composite
def dyadic_crossing_pairs(draw):
    # build q = p - diff where diff only changes sign by exact negation, so
    # every zero crossing of p - q lands at a segment midpoint
    p = draw(exact_paths())
    n = len(p.times)
    mags = (draw(small_dyadics).__abs__() + Dyadic(1),
            draw(small_dyadics).__abs__() + Dyadic(1))
    signs = [(draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([-1, 0, 1])))
             for _ in range(n)]
    qv = tuple(
        (p.values[i][0] - mags[0] * s1, p.values[i][1] - mags[1] * s2)
        for i, (s1, s2) in enumerate(signs)
    )
    return p, PLPath2(p.times, qv, EXACT)


@given(dyadic_crossing_pairs())
def test_lattice_identity_property(pq):
    p, q = pq
    low = path_min(p, q)
    diff = path_sub(p, q)
    assert sup_distance(path_sub(p, low), plus_part(diff)) == 0
    assert sup_distance(path_sub(q, low), minus_part(diff)) == 0


# --- the breakpoint rule ------------------------------------------------------

# normal floats only, so that scaling by 2^k (|k| <= 60) rounds nowhere
_times = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-200, max_value=1e200),
    st.floats(min_value=-1e200, max_value=-1e-200),
)
# relative offsets on both sides of the FLOAT_DEDUP threshold
_offsets = st.sampled_from([0.0, 2.0**-45, 2.0**-41, 2.0**-40, 2.0**-39, 1e-9, -2.0**-41])


@st.composite
def _grids(draw):
    base = sorted(set(draw(st.lists(_times, min_size=1, max_size=8))))
    extras = []
    for _ in range(draw(st.integers(0, 3))):
        near = [b * (1 + draw(_offsets)) for b in draw(st.lists(st.sampled_from(base), max_size=4))]
        extras.append(sorted(near + draw(st.lists(_times, max_size=4))))
    return base, extras


@settings(max_examples=200, deadline=None)
@given(_grids(), st.integers(min_value=-60, max_value=60))
def test_merge_times_commutes_with_power_of_two_rescaling(grids, k):
    base, extras = grids
    c = 2.0**k
    merged = merge_times(base, *extras, mode=FLOAT)
    scaled = merge_times([c * t for t in base], *([c * t for t in e] for e in extras), mode=FLOAT)
    assert scaled == [c * t for t in merged]


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_merge_times_keeps_base_and_is_idempotent(grids):
    base, extras = grids
    merged = merge_times(base, *extras, mode=FLOAT)
    assert set(base) <= set(merged)
    assert all(s < t for s, t in zip(merged, merged[1:]))
    assert merge_times(merged, merged, mode=FLOAT) == merged
    assert merge_times(merged, *extras, mode=FLOAT) == merged


def _reference_merge(base, *extras):
    # the rule as stated: an extra joins unless it is near any time kept so far
    kept = list(base)
    for extra in extras:
        for t in extra:
            if not any(abs(t - s) <= FLOAT_DEDUP * max(abs(s), abs(t)) for s in kept):
                kept.append(t)
        kept.sort()
    return kept


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_merge_times_matches_reference(grids):
    base, extras = grids
    assert merge_times(base, *extras, mode=FLOAT) == _reference_merge(base, *extras)


def test_merge_times_has_no_absolute_floor():
    # neighbouring spiral breakpoints 2^-41 and 2^-40 are distinct times
    assert merge_times([2.0**-41, 1.0], [2.0**-40], mode=FLOAT) == [2.0**-41, 2.0**-40, 1.0]
    # a near-duplicate extra never displaces the base time
    assert merge_times([0.0, 0.5, 1.0], [0.5 - 5e-14], mode=FLOAT) == [0.0, 0.5, 1.0]


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("base, extras, mode", [
    ([0, 1], [[_NAN, 0.5]], FLOAT),  # a NaN extra
    ([0, _INF], [[0.5]], FLOAT),  # an infinite base time
    ([0, 1], [[0.5, -_INF]], FLOAT),
    ([], [[1.0]], FLOAT),  # an empty base
    ([1, 0], [[0.5]], FLOAT),  # a descending base
    ([0, 1], [[[0.5]]], FLOAT),  # an extra that is not flat
    ([0, 1], [0.5], FLOAT),
    ([Dyadic(0), Dyadic(0)], [[Dyadic(1, -1)]], EXACT),
    ([Dyadic(0), Dyadic(1)], [[[Dyadic(1, -1)]]], EXACT),
])
def test_merge_times_refuses_what_is_not_a_time_grid(base, extras, mode):
    with pytest.raises(UsageError):
        merge_times(base, *extras, mode=mode)


def test_merge_times_exact_is_a_linear_walk(monkeypatch):
    def no_hash(self):
        raise AssertionError("exact merge must not hash Dyadic")

    monkeypatch.setattr(Dyadic, "__hash__", no_hash)
    base = [Dyadic(0), Dyadic(1, -2), Dyadic(1)]
    extra = [Dyadic(1, -3), Dyadic(1, -2), Dyadic(1, -2), Dyadic(3, -2)]
    merged = merge_times(base, extra, [Dyadic(3, -2)], mode=EXACT)
    assert merged == [Dyadic(0), Dyadic(1, -3), Dyadic(1, -2), Dyadic(3, -2), Dyadic(1)]


def test_refine_is_variadic_and_keeps_first_grid():
    p = PLPath2((0.0, 0.5, 1.0), ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)), FLOAT)
    q = PLPath2((0.0, 0.5 - 5e-14, 1.0), ((0.0, 0.0),) * 3, FLOAT)
    r = PLPath2((0.0, 0.25, 1.0), ((0.0, 0.0),) * 3, FLOAT)
    out = refine(p, q, r)
    assert len(out) == 3
    # every breakpoint of every path is read: q's 0.5 - 5e-14 is kept, not
    # merged into p's 0.5, and p takes its interpolated value there
    assert all(x.times == (0.0, 0.25, 0.5 - 5e-14, 0.5, 1.0) for x in out)
    assert out[0].values[2] == (1.0 - 1e-13, 0.0)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_component_is_one_coordinate_as_a_tuple_of_python_scalars(mode):
    scalar = float if mode == FLOAT else Dyadic
    p = PLPath2((0, 0.5, 1), ((0, 1), (2, -3), (-2, 5)), mode)
    for j in (0, 1):
        col = p.component(j)
        assert type(col) is tuple and all(type(x) is scalar for x in col)
        assert col == tuple(v[j] for v in p.values)
    assert p.component(0) == (0, 2, -2) and p.component(1) == (1, -3, 5)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_times_and_values_are_tuples_of_python_scalars(mode):
    # callers compare grids with == and copy values with list(); both need
    # plain tuples, never arrays
    scalar = float if mode == FLOAT else Dyadic
    p = PLPath2((0, 0.5, 1), ((0, 1), (2, -3), (-2, 5)), mode)  # dyadic crossings
    derived = (
        p,
        path_min(p, path_sub(p, p)),
        minus_part(p),
        jordan_decompose(p).m,
        with_times(p, [0, 0.25, 0.5, 1]),
        serialize.path_from_json(json.loads(json.dumps(serialize.path_to_json(p)))),
    )
    for q in derived:
        assert type(q.times) is tuple and all(type(t) is scalar for t in q.times)
        assert type(q.values) is tuple
        assert all(type(v) is tuple and len(v) == 2 for v in q.values)
        assert all(type(x) is scalar for v in q.values for x in v)
        assert type(q.times == p.times) is bool
        assert type(q.values == p.values) is bool
    assert derived[-1].times == p.times and derived[-1].values == p.values


_ONE = {"m": "1", "e": 0}


@pytest.mark.parametrize("mode, values, message", [
    (FLOAT, [[1, 2], [3]], "malformed 'values': each entry must be a pair"),
    (FLOAT, [[1, 2, 3], [1, 2, 3]], "malformed 'values': each entry must be a pair"),
    (FLOAT, [1, 2], "malformed 'values': each entry must be a pair"),
    (FLOAT, "a", "malformed 'values': 'a'"),
    (FLOAT, None, "malformed 'values': None"),
    (FLOAT, [[1, "a"], [2, 3]], "malformed float scalar: 'a'"),
    (FLOAT, [[1, None], [2, 3]], "malformed float scalar: None"),
    (FLOAT, [[1, _ONE], [2, 3]], "exact scalar found in a float-mode document"),
    (EXACT, [[_ONE, _ONE], [_ONE]], "malformed 'values': each entry must be a pair"),
    (EXACT, [[_ONE] * 3] * 2, "malformed 'values': each entry must be a pair"),
    (EXACT, [_ONE, _ONE], "malformed 'values': each entry must be a pair"),
    (EXACT, "a", "malformed 'values': 'a'"),
    (EXACT, None, "malformed 'values': None"),
    (EXACT, [[_ONE, "a"], [_ONE, _ONE]], "malformed exact scalar: 'a'"),
    (EXACT, [[_ONE, None], [_ONE, _ONE]], "malformed exact scalar: None"),
    (EXACT, [[_ONE, 1.5], [_ONE, _ONE]], "malformed exact scalar: 1.5"),
    (EXACT, [[_ONE, "me"], [_ONE, _ONE]], "malformed exact scalar: 'me'"),
    (EXACT, [[_ONE, {"m": "1"}], [_ONE, _ONE]], "malformed exact scalar: {'m': '1'}"),
    (EXACT, [[_ONE, {"m": "1", "x": 0}], [_ONE, _ONE]], "malformed exact scalar: {'m': '1', 'x': 0}"),
    (EXACT, [[_ONE, {"m": "x", "e": 0}], [_ONE, _ONE]], "malformed exact scalar: {'m': 'x', 'e': 0}"),
    # entries that iterate into two numbers, which a flat read of the pairs would take
    pytest.param(FLOAT, [[1, 2], "12"], "malformed 'values': each entry must be a pair",
                 id="float-string-entry"),
    pytest.param(FLOAT, [[1, 2], {"1": 0, "2": 0}], "malformed 'values': each entry must be a pair",
                 id="float-dict-entry"),
    pytest.param(FLOAT, [[1, 2**1024], [2, 3]], f"malformed float scalar: {2**1024!r}",
                 id="float-int-beyond-double-range"),
    # exact parts are ints or decimal strings: a float or a bool is refused, not truncated
    (EXACT, [[_ONE, {"m": 1.5, "e": 0}], [_ONE, _ONE]], "malformed exact scalar: {'m': 1.5, 'e': 0}"),
    (EXACT, [[_ONE, {"m": "1", "e": 0.5}], [_ONE, _ONE]],
     "malformed exact scalar: {'m': '1', 'e': 0.5}"),
    (EXACT, [[_ONE, {"m": True, "e": 0}], [_ONE, _ONE]],
     "malformed exact scalar: {'m': True, 'e': 0}"),
    (EXACT, [[_ONE, {"m": "1", "e": -1.9}], [_ONE, _ONE]],
     "malformed exact scalar: {'m': '1', 'e': -1.9}"),
])
def test_path_from_json_names_malformed_values(mode, values, message):
    times = [0, 1] if mode == FLOAT else [{"m": "0", "e": 0}, _ONE]
    with pytest.raises(UsageError) as err:
        serialize.path_from_json({"mode": mode, "times": times, "values": values})
    assert str(err.value) == message


def test_path_from_json_reads_non_canonical_exact_scalars():
    doc = {"mode": EXACT, "times": [{"m": "0", "e": -7}, {"m": 4, "e": "-2"}],
           "values": [[{"m": "-6", "e": 3}, {"m": "0", "e": 5}], [_ONE, {"m": "3", "e": -1600}]]}
    p = serialize.path_from_json(doc)
    assert p.times == (Dyadic(0), Dyadic(1))
    assert p.values == ((Dyadic(-3, 4), Dyadic(0)), (Dyadic(1), Dyadic(3, -1600)))


def _one_by_one(flat: list, mode: str):
    """A field read scalar by scalar with the one rule: its array, or the
    message of the first malformed scalar."""
    try:
        xs = [serialize.scalar_from_json(x, mode) for x in flat]
    except UsageError as err:
        return str(err)
    return np.array(xs, dtype=float) if mode == FLOAT else DyadicArray.of(xs)


_LONG = "1" * 5000  # past the interpreter's default limit of 4,300 digits
_float_scalars = st.one_of(
    st.floats(), st.integers(), st.floats().map(repr), st.integers().map(str), st.booleans(),
    st.none(), st.just(2**1024), st.just({"m": "1", "e": 0}), st.lists(st.integers(), max_size=2),
    st.text(max_size=2),
)
_parts = st.one_of(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70).map(str), st.floats(),
                   st.booleans(), st.just(_LONG))
_exponents = st.one_of(st.integers(-64, 64), st.integers(-64, 64).map(str), st.floats(), st.booleans())
_exact_scalars = st.one_of(
    st.fixed_dictionaries({"m": st.integers(-2**70, 2**70).map(str), "e": st.integers(-64, 64)}),
    st.fixed_dictionaries({"m": _parts, "e": _exponents}),
    st.fixed_dictionaries({"m": _parts, "e": _exponents, "x": st.integers()}),
    st.fixed_dictionaries({"m": _parts}),
    st.fixed_dictionaries({"e": _exponents}),
    st.integers(), st.text(max_size=2), st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.just(FLOAT), st.lists(_float_scalars, max_size=6)),
                 st.tuples(st.just(EXACT), st.lists(_exact_scalars, max_size=6))))
def test_field_read_in_bulk_is_the_one_rule(case):
    mode, flat = case
    want = _one_by_one(flat, mode)
    try:
        got = serialize._scalars(flat, mode)
    except UsageError as err:
        assert str(err) == want
        return
    assert not isinstance(want, str), want
    if mode == FLOAT:
        assert got.dtype == float and got.tobytes() == want.tobytes()
    else:
        assert got.to_parts() == want.to_parts()


def test_bundle_from_json_refuses_a_bool_depth():
    doc = json.loads(json.dumps(serialize.bundle_to_json(build_counterexample(Dyadic(-2), 8))))
    doc["depth"] = True
    with pytest.raises(UsageError, match="malformed 'depth': True"):
        serialize.bundle_from_json(doc)


def test_sup_distance_is_symmetric_with_a_breakpoint_next_to_another():
    p = PLPath2((0.0, 0.5, 1.0), ((0.0, 0.0),) * 3, FLOAT)
    q = PLPath2((0.0, 0.5, 0.5 + 2.0**-45, 1.0), ((0.0, 0.0), (0.0, 0.0), (5e5, 0.0), (0.0, 0.0)), FLOAT)
    assert sup_distance(p, q) == sup_distance(q, p) == 5e5


# --- one ownership rule for a path's arrays -----------------------------------


def _writeable(a) -> bool:
    return (a.m if isinstance(a, DyadicArray) else a).flags.writeable


def _fresh(values, mode):
    """A writeable array of the mode's scalars, as a caller would hold one."""
    return DyadicArray.of(values) if mode == EXACT else np.array(values, dtype=float)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_a_path_shares_a_read_only_array_that_owns_its_data(mode):
    p = PLPath2((0, 0.5, 1), ((0, 0), (1, 0), (1, 1)), mode)
    q = PLPath2(p.t, ((1, 1),) * 3, mode)
    assert q.t is p.t and not _writeable(q.t)
    assert PLPath2(p.t, p.x, mode).x is p.x


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_a_callers_writeable_arrays_stay_writeable_and_apart(mode):
    t, x = _fresh([0, 0.5, 1], mode), _fresh([[0, 0], [1, 0], [1, 1]], mode)
    p = PLPath2(t, x, mode)
    assert _writeable(t) and _writeable(x)
    assert p.t is not t and p.x is not x and not _writeable(p.t) and not _writeable(p.x)
    before = p.times, p.values
    t[1] = 0.25
    x[1, 0] = 3
    assert (p.times, p.values) == before


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_a_read_only_view_of_a_writeable_array_is_copied(mode):
    base = _fresh([0, 0.5, 1, 2], mode)
    if mode == EXACT:
        m = base.m[:3]
        m.setflags(write=False)
        view = DyadicArray(m, base.e)
    else:
        view = base[:3]
        view.setflags(write=False)
    p = PLPath2(view, ((0, 0),) * 3, mode)
    assert p.t is not view
    base[1] = 1.5  # on base's exponent, so the write lands in the view's memory
    assert view[1] == 1.5
    assert p.times == PLPath2((0, 0.5, 1), ((0, 0),) * 3, mode).times


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_refine_outputs_share_one_read_only_union(mode):
    p = PLPath2((0, 1), ((0, 0), (1, 1)), mode)
    q = PLPath2((0, 0.5, 1), ((0, 0), (1, 0), (1, 1)), mode)
    a, b = refine(p, q)
    assert a.t is b.t and not _writeable(a.t)
    assert a.times == b.times == q.times
    c, d, e = refine(p, q, p)
    assert c.t is d.t is e.t


def test_freezing_a_dyadic_array_in_place_keeps_its_values():
    a = DyadicArray.of([0, 0.5, 1.5])
    a.m[:] = a.m * 4  # the same values on a far lower exponent
    a.e -= 2
    values = a.tolist()
    a.setflags(write=False)
    assert a.tolist() == values and not _writeable(a)
    assert list(a.m) == [0, 1, 3] and a.e == -1
    zeros = DyadicArray([0, 0], -9)
    zeros.setflags(write=False)
    assert zeros.e == 0 and zeros.tolist() == [Dyadic(0)] * 2
