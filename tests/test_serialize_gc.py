"""The JSON document builders run with the cyclic garbage collector paused.

A float document holds one small list per point pair and an exact one a dict
per scalar, none of which can form a reference cycle; the builders pause the
collector so that building them triggers no collection, and give it back in
the state they found it, also when they raise.
"""

import dataclasses
import gc
import json
import sys

import numpy as np
import pytest

from skorokhod2d import serialize
from skorokhod2d.cli import run
from skorokhod2d.counterexample import build_counterexample
from skorokhod2d.errors import UsageError
from skorokhod2d.paths import EXACT, FLOAT, PLPath2
from skorokhod2d.verifier import UniquenessDiagnostics


@pytest.fixture(autouse=True)
def collector_on():
    # every test starts with the collector on and leaves it as it found it
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def _walk(n: int) -> PLPath2:
    # a random walk from the origin, so a driving function
    rng = np.random.default_rng(0)
    x = np.cumsum(rng.standard_normal((n + 1, 2)), axis=0)
    return PLPath2(np.arange(n + 1.0), x - x[0], FLOAT)


def _collections_during(build, *args) -> tuple[object, list]:
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(record)
    try:
        return build(*args), seen
    finally:
        gc.callbacks.remove(record)


def _documents():
    walk = _walk(300)
    for mode, a1 in [(FLOAT, -1.5), (EXACT, -2)]:
        b = build_counterexample(a1, 24)
        assert b.u.mode == mode
        yield serialize.path_to_json, (b.u,)
        yield serialize.triple_to_json, (b.triple(),)
        yield serialize.bundle_to_json, (b,)
    yield serialize.path_to_json, (walk,)
    yield serialize.solution_to_json, (walk, walk, 3, True, 1e-12)


def test_the_collector_is_paused_inside_and_restored_after_a_return():
    inside = serialize._gc_paused(gc.isenabled)
    for state in (True, False):
        (gc.enable if state else gc.disable)()
        assert inside() is False
        serialize.path_to_json(_walk(10))
        assert gc.isenabled() is state  # a caller's gc.disable() holds


def test_nested_builders_restore_the_outer_state():
    inner = serialize._gc_paused(gc.isenabled)
    outer = serialize._gc_paused(lambda: (inner(), gc.isenabled()))
    assert outer() == (False, False)
    assert gc.isenabled()
    # triple_to_json builds its paths with path_to_json
    t = build_counterexample(-2, 8).triple()
    serialize.triple_to_json(t)
    assert gc.isenabled()
    gc.disable()
    serialize.triple_to_json(t)
    assert not gc.isenabled()


def _limit_or_skip() -> int:
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter converts ints to strings of any length")
    return limit


def test_the_collector_is_restored_after_a_raise():
    # an exact array past the range of `_check_range` (a mantissa of more
    # digits than the interpreter converts) refused inside bundle_to_json
    limit = _limit_or_skip()
    b = build_counterexample(-2, 8)
    huge = PLPath2([0, 1], [(0, 0), (10**limit + 1, 0)], EXACT)
    bad = dataclasses.replace(b, gbar=huge)
    for state in (True, False):
        (gc.enable if state else gc.disable)()
        with pytest.raises(UsageError, match="exact mantissa"):
            serialize.bundle_to_json(bad)
        assert gc.isenabled() is state


def test_no_collection_inside_the_document_builders():
    walk = _walk(20_000)
    bundle = build_counterexample(-2, 400)
    # one path's arrays alone allocate enough containers to collect ...
    for p in (walk, bundle.u):
        assert _collections_during(serialize.path_to_json.__wrapped__, p)[1]
    # ... but no collection runs inside a whole document's builder
    for build, args in [(serialize.solution_to_json, (walk, walk, 3, True, 1e-12)),
                        (serialize.bundle_to_json, (bundle,))]:
        assert _collections_during(build, *args)[1] == [], build.__name__


def test_documents_equal_the_unpaused_builders():
    for build, args in _documents():
        doc = build(*args)
        assert doc == build.__wrapped__(*args)
        assert json.dumps(doc, sort_keys=True) == json.dumps(build.__wrapped__(*args), sort_keys=True)


def test_cli_reads_documents_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    f = _walk(50)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(serialize.path_to_json(f)))
    loads, states = json.loads, []

    def recording_loads(text):
        states.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(json, "loads", recording_loads)
    # nothing in the package collects, freezes or moves a threshold
    for name in ("collect", "freeze", "set_threshold"):
        monkeypatch.setattr(gc, name, lambda *a, name=name: pytest.fail(f"gc.{name} called"))
    out = tmp_path / "sol.json"
    assert run(["solve", "--matrix=-0.5,0.5", "--f", str(path), "--out", str(out)]) == 0
    sol = loads(out.read_text())
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({"matrix": {"a1": -0.5, "a2": 0.5}, "f": loads(path.read_text()),
                                  "g": sol["g"], "m": sol["m"]}))
    assert run(["verify", "--triple", str(triple), "--tol", "1e-9"]) == 0
    capsys.readouterr()
    assert states == [False, False] and gc.isenabled()


def test_cli_builds_and_encodes_compare_documents_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(serialize.triple_to_json(build_counterexample(-2, 8).triple())))
    to_json, dumps, states = UniquenessDiagnostics.to_json, json.dumps, []

    def recording(build):
        def record(*args, **kwargs):
            states.append(gc.isenabled())
            return build(*args, **kwargs)
        return record

    monkeypatch.setattr(UniquenessDiagnostics, "to_json", recording(to_json))
    monkeypatch.setattr(json, "dumps", recording(dumps))
    assert run(["compare", "--s1", str(triple), "--s2", str(triple)]) == 0
    assert json.loads(capsys.readouterr().out)["max_v"] == 0
    assert states == [False, False] and gc.isenabled()
