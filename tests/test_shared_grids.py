"""A document's paths that share a time grid have it encoded and decoded once.

The builders put one list into every path on a shared time array, so the
bytes are those of separate copies; the readers decode a grid once and hand
it to a later path of the same mode whose list is equal and decodes to the
same grid: for exact lists, of the bulk reader's types; for float lists, with
the same sign of zero. Reuse must never skip a check or change a bit: a later
path is refused exactly when it would be refused alone, and decodes as it
would alone. So a read solution holds g and m on one grid, as a built one does.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skorokhod2d import serialize
from skorokhod2d.classify import ReflectionMatrix2
from skorokhod2d.counterexample import build_counterexample
from skorokhod2d.dyadic import Dyadic
from skorokhod2d.errors import UsageError
from skorokhod2d.paths import EXACT, FLOAT, PLPath2
from skorokhod2d.solver import SolveConfig, solve_fixed_point, solve_grid
from skorokhod2d.verifier import SolutionTriple

_PATHS = ("u", "m", "mbar", "f", "g", "gbar")


def _paths(b):
    return (b.u, b.decomp.m, b.decomp.mbar, b.f, b.g, b.gbar)


def _same_path(p, q) -> bool:
    return p.mode == q.mode and p.times == q.times and p.values == q.values


@pytest.fixture(scope="module")
def bundle():
    return build_counterexample(Dyadic(-2), 40)


def test_bundle_document_holds_one_times_list_and_the_bytes_of_separate_ones(bundle):
    doc = serialize.bundle_to_json(bundle)
    assert all(doc[k]["times"] is doc["u"]["times"] for k in _PATHS)
    triple = serialize.triple_to_json(bundle.triple())
    assert triple["f"]["times"] is triple["g"]["times"] is triple["m"]["times"]
    separate = dict(doc, **{k: serialize.path_to_json(p) for k, p in zip(_PATHS, _paths(bundle))})
    assert all(separate[k]["times"] is not separate["u"]["times"] for k in _PATHS[1:])
    assert json.dumps(doc) == json.dumps(separate)


def _walk():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(201, 2)).cumsum(axis=0) * 0.1
    return PLPath2(np.linspace(0.0, 1.0, 201), x - x[0] + 0.05, FLOAT)


@pytest.mark.parametrize("solve", [solve_fixed_point, solve_grid])
def test_solution_document_holds_one_times_list_and_the_bytes_of_separate_ones(solve):
    f = _walk()
    res = solve(ReflectionMatrix2(-0.5, 0.5), f, SolveConfig())
    doc = serialize.solution_to_json(res.g, res.m, res.iterations, res.converged, res.residual)
    assert doc["g"]["times"] is doc["m"]["times"]
    separate = dict(doc, g=serialize.path_to_json(res.g), m=serialize.path_to_json(res.m))
    assert separate["g"]["times"] is not separate["m"]["times"]
    assert json.dumps(doc, sort_keys=True) == json.dumps(separate, sort_keys=True)


@pytest.mark.parametrize("solve", [solve_fixed_point, solve_grid])
def test_a_read_solution_holds_g_and_m_on_one_read_only_grid(solve):
    f = _walk()
    res = solve(ReflectionMatrix2(-0.5, 0.5), f, SolveConfig())
    doc = serialize.solution_to_json(res.g, res.m, res.iterations, res.converged, res.residual)
    for sol in (doc, json.loads(json.dumps(doc))):  # one list object, then two equal lists
        back = serialize.triple_from_json({"matrix": {"a1": -0.5, "a2": 0.5},
                                           "f": serialize.path_to_json(f), "g": sol["g"], "m": sol["m"]})
        assert back.g.t is back.m.t and not back.g.t.flags.writeable
        assert back.g.t.tobytes() == res.g.t.tobytes()
        assert back.g.x.tobytes() == res.g.x.tobytes() and back.m.x.tobytes() == res.m.x.tobytes()


def test_bundle_round_trip_decodes_equal_paths_on_one_time_array(bundle):
    back = serialize.bundle_from_json(json.loads(json.dumps(serialize.bundle_to_json(bundle))))
    assert all(_same_path(p, q) for p, q in zip(_paths(bundle), _paths(back)))
    assert (back.R, back.depth, back.tail_bound, back.rho) == (
        bundle.R, bundle.depth, bundle.tail_bound, bundle.rho)
    assert all(p.t is back.u.t for p in _paths(back))
    assert not back.u.t.m.flags.writeable


@pytest.mark.parametrize("bad", [False, 0.0])
@pytest.mark.parametrize("reader", ["bundle", "triple"])
def test_an_equal_times_list_of_the_wrong_types_is_refused(bundle, bad, reader):
    # the last time is 1 = {"m": "1", "e": 0}; False and 0.0 compare equal to 0
    doc = json.loads(json.dumps(serialize.bundle_to_json(bundle)))
    scalar = doc["g"]["times"][-1]
    scalar["e"] = bad
    assert doc["g"]["times"] == doc["f"]["times"] == doc["u"]["times"]
    read = serialize.bundle_from_json if reader == "bundle" else serialize.triple_from_json
    with pytest.raises(UsageError) as err:
        read(doc)
    assert str(err.value) == f"malformed exact scalar: {scalar!r}"


def test_a_shared_times_list_still_meets_every_path_check(bundle):
    doc = serialize.bundle_to_json(bundle)
    doc["g"] = dict(doc["g"], values=doc["g"]["values"][:-1])  # one pair short
    with pytest.raises(UsageError, match="one .x1, x2. pair per time"):
        serialize.bundle_from_json(doc)


def test_reuse_never_crosses_modes():
    times = [0, 1]  # one list, read as float times and as exact times
    doc = {"matrix": {"a1": 0.5, "a2": 0.5},
           "f": {"mode": FLOAT, "times": times, "values": [[1, 1], [1, 1]]},
           "g": {"mode": EXACT, "times": times, "values": [[{"m": "1", "e": 0}] * 2] * 2},
           "m": {"mode": FLOAT, "times": times, "values": [[0, 0], [0, 0]]}}
    with pytest.raises(UsageError, match="malformed exact scalar: 0"):
        serialize.triple_from_json(doc)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_paths_on_different_grids_each_decode_their_own(mode):
    f = PLPath2((0, 1), ((1, 1), (1, 1)), mode)
    g = PLPath2((0, 0.25, 1), ((1, 1), (1, 2), (1, 1)), mode)
    m = PLPath2((0, 0.5, 0.75, 1), ((0, 0),) * 4, mode)
    triple = SolutionTriple(ReflectionMatrix2(0.5, 0.5), f, g, m)
    back = serialize.triple_from_json(json.loads(json.dumps(serialize.triple_to_json(triple))))
    assert all(_same_path(p, q) for p, q in zip((f, g, m), (back.f, back.g, back.m)))


def test_float_times_equal_under_eq_decode_bit_for_bit():
    # -0.0 == 0.0, but the two lists decode to different bits
    f = {"mode": FLOAT, "times": [0.0, 0.5, 1.0], "values": [[1, 1]] * 3}
    g = {"mode": FLOAT, "times": [-0.0, 0.5, 1.0], "values": [[1, 1]] * 3}
    m = {"mode": FLOAT, "times": [0.0, 0.5, 1.0], "values": [[0, 0]] * 3}
    assert f["times"] == g["times"] == m["times"]
    back = serialize.triple_from_json({"matrix": {"a1": 0.5, "a2": 0.5}, "f": f, "g": g, "m": m})
    for doc, p in ((f, back.f), (g, back.g), (m, back.m)):
        alone = serialize.path_from_json(doc)
        assert p.t.tobytes() == alone.t.tobytes() and p.x.tobytes() == alone.x.tobytes()
    assert np.signbit(back.g.t[0]) and not np.signbit(back.f.t[0])


_TIMES = [{"m": "0", "e": 0}, {"m": "1", "e": -2}, {"m": "3", "e": -2}, {"m": "1", "e": 0}]
# parts that compare equal to the good ones, or not, in every type JSON can hold
_SWAPS = st.sampled_from([False, True, 0.0, 1.0, 0, 1, -2, "-2", "0", "1", "3", 3, -2.0, None])
_FLOAT_TIMES = [0.0, 0.25, 0.75, 1.0]
# float times that compare equal to 0.0 and decode to either zero, or not
_FLOAT_SWAPS = st.sampled_from([0.0, -0.0, 0, False, "0", "-0", 0.5, True, 1, "1", None])
_ZEROS = st.sampled_from([0.0, -0.0, 0, False, "0", "-0"])


def _decodes_as_alone(first, second, same):
    """The second path of [first, second] decodes as it would alone: the same
    error, or a grid that `same` finds equal to the lone path's."""
    try:
        want = serialize.path_from_json(second)
    except UsageError as err:
        with pytest.raises(UsageError) as got:
            serialize._paths_from_json(first, second)
        assert str(got.value) == str(err)
        return
    _, p = serialize._paths_from_json(first, second)
    assert same(p.t, want.t)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("me"), _SWAPS), max_size=3),
       st.lists(st.tuples(st.integers(0, 3), _FLOAT_SWAPS), max_size=3), _ZEROS)
def test_a_later_times_list_decodes_as_it_would_alone(swaps, float_swaps, first_zero):
    later = copy.deepcopy(_TIMES)
    for i, part, value in swaps:
        later[i][part] = value
    first = {"mode": EXACT, "times": _TIMES, "values": [[{"m": "1", "e": 0}] * 2] * 4}
    _decodes_as_alone(first, dict(first, times=later), lambda s, t: s.to_parts() == t.to_parts())
    times = [first_zero] + _FLOAT_TIMES[1:]
    later = list(times)
    for i, value in float_swaps:
        later[i] = value
    first = {"mode": FLOAT, "times": times, "values": [[1.0, 1.0]] * 4}
    _decodes_as_alone(first, dict(first, times=later), lambda s, t: s.tobytes() == t.tobytes())
