"""Tests of the benchmark itself: statistics, failure accounting, controls.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import report
import run
import speed
from tracing import Tracer
from workloads import (BLOCK, CONTROL_RUN, WORKLOADS, Instance, Verdicts, _offset,
                       perturbed_triple, stratified)


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


# --- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n, q", [(20, 50), (32, 68), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_examples(n, q):
    assert run.tail_percentile(n) == q


def test_tail_percentile_is_highest_with_ten_beyond():
    assert run.tail_percentile(10) is None
    for n in range(11, 400):
        q = run.tail_percentile(n)
        assert n - math.ceil(q * n / 100) >= 10
        assert q == 99 or n - math.ceil((q + 1) * n / 100) < 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_deck_is_whole_blocks_with_three_instances_beyond_the_tail(name):
    wl = WORKLOADS[name]
    assert wl.deck % BLOCK == 0
    assert wl.tail_percentile <= run.tail_percentile(wl.deck, beyond=3)


def test_hd_quantile():
    assert run.hd_quantile([3.0], 0.5) == 3.0
    assert run.hd_quantile([2.0] * 7, 0.66) == pytest.approx(2.0)
    xs = list(range(1, 102))
    assert run.hd_quantile(xs, 0.5) == pytest.approx(51.0)
    assert run.hd_quantile(xs, 0.25) < run.hd_quantile(xs, 0.5) < run.hd_quantile(xs, 0.9)
    assert math.isfinite(run.hd_quantile(range(5000), 0.9))


# --- failure accounting --------------------------------------------------------


class _FakeWorkload:
    """Instance i raises when i % 4 == 1, gets a wrong verdict when 2 and is
    a rejected negative control when 3."""

    deck = BLOCK
    checks = 2
    tail_percentile = 50

    def make(self, i, seed):
        return Instance(f"fake/i{i}", 10 * (i + 1), {"i": i}, "g" if i % 4 == 3 else None)

    def run(self, prog, inst, tr):
        if inst.params["i"] % 4 == 1:
            raise ArithmeticError("boom")
        return inst.params["i"]

    def check(self, prog, inst, out):
        return Verdicts(["wrong verdict"] if out % 4 == 2 else [],
                        control_rejected=True if inst.control else None)


def test_run_loop_counts_raises_and_wrong_verdicts():
    records = run.run_loop(_FakeWorkload(), None, 0, 0.0, Tracer(False))
    assert len(records) == BLOCK  # one whole pass over the deck
    assert all(len(r.seconds) == 1 for r in records)
    assert [bool(r.failures) for r in records] == [False, True, True, False, False]
    assert records[1].failures == ["raised ArithmeticError: boom"]
    metrics = run.end_to_end_metrics(records, [0.5, 0.1, 0.3], 50, checks=2)
    assert metrics["checks_passed_ratio"] == 0.7  # a raise fails both checks
    assert metrics["controls_rejected_ratio"] == 1.0
    assert metrics["setup_s"] == 0.3
    assert metrics["segments_per_s"] == pytest.approx(
        run.hd_quantile([r.segments / r.median_s for r in records], 0.5))


def test_later_passes_merge_into_the_deck_records():
    records = run.run_loop(_FakeWorkload(), None, 0, 0.3, Tracer(False))
    assert len(records) == BLOCK  # attempted stays the deck size
    assert all(len(r.seconds) == len(r.raw_seconds) >= 1 for r in records)
    assert sum(len(r.seconds) for r in records) > BLOCK
    assert records[1].failures == ["raised ArithmeticError: boom"]  # not repeated


def test_an_instance_fails_if_any_pass_fails():
    r = run.Record("a", 1)
    r.add(1.0, 1.0, Verdicts(control_rejected=True))
    r.add(3.0, 2.0, Verdicts(["wrong"], control_rejected=False))
    r.add(2.0, 2.0, Verdicts(control_rejected=True))
    assert r.failures == ["wrong"] and r.control_rejected is False
    assert r.median_s == 2.0


def _record(name, failures=(), control_rejected=None):
    r = run.Record(name, 1)
    r.add(1.0, 1.0, Verdicts(list(failures), control_rejected=control_rejected))
    return r


def test_checks_passed_ratio_counts_failed_checks():
    records = [_record("a", ["x", "y", "z"]), _record("b"),
               _record("c", ["x"], control_rejected=False),
               _record("d", control_rejected=True)]
    metrics = run.end_to_end_metrics(records, [1.0], 50, checks=4)
    assert metrics["checks_passed_ratio"] == 1 - 4 / 16
    assert metrics["controls_rejected_ratio"] == 0.5


def test_a_run_without_negative_controls_cannot_be_checked():
    with pytest.raises(run.HarnessError):
        run.end_to_end_metrics([_record("a")], [1.0], 50, checks=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_failure_message_is_one_check(prog, name):
    """A stub verify that always fails and a stub compare that always
    disagrees fail at most ``checks`` checks of a small control."""
    stub = run.types.SimpleNamespace(**vars(prog))
    real = prog.verify
    stub.verify = lambda triple, tol, strict=False: dataclasses.replace(
        real(triple, tol), passed=False)
    wl, inst = WORKLOADS[name], _small_control(name, "g")
    v = wl.check(stub, inst, wl.run(stub, inst, Tracer(False)))
    assert 1 <= len(v.failures) <= wl.checks


def test_speed_scale_uses_the_probes_near_the_work():
    probes = speed.Probes()
    r = speed.REFERENCE_S
    far = 100 + 2 * speed.WINDOW_S
    probes.taken = [(100.0, r), (101.0, 3 * r), (102.0, 2 * r), (far, 50 * r)]
    assert probes.scale(100.0, 101.0) == 0.5  # median of r, 3r and 2r
    assert probes.scale(far, far) == 1 / 50
    probes.take()
    assert probes.taken[-1][1] > 0


# --- negative controls ---------------------------------------------------------


def _small_control(name: str, kind: str) -> Instance:
    wl = WORKLOADS[name]
    rng = np.random.default_rng(7)
    if name == "walk-certify":
        return wl._instance("t", rng, 1000, 1.0, 1.0, False, 0.25, kind)
    if name == "near-critical":
        return wl._instance("t", rng, 1000, -0.9, 0.9, 1.0, kind)
    return wl._instance("t", rng, -2, 200, kind)


CASES = [(name, kind) for name in sorted(WORKLOADS) for kind in "gm"]


@pytest.mark.parametrize("name, kind", CASES)
def test_negative_control_passes_with_real_verify(prog, name, kind):
    wl, inst = WORKLOADS[name], _small_control(name, kind)
    v = wl.check(prog, inst, wl.run(prog, inst, Tracer(False)))
    assert v.failures == []
    assert not v.broken
    assert v.control_rejected is True


@pytest.mark.parametrize("name, kind", CASES)
def test_always_pass_verify_is_caught(prog, name, kind):
    real = prog.verify
    stub = run.types.SimpleNamespace(**vars(prog))
    stub.verify = lambda triple, tol, strict=False: dataclasses.replace(
        real(triple, tol), passed=True)
    wl, inst = WORKLOADS[name], _small_control(name, kind)
    v = wl.check(stub, inst, wl.run(stub, inst, Tracer(False)))
    assert any("certified a negative control" in f for f in v.failures)
    record = run.Record(inst.name, inst.segments)
    record.add(1.0, 1.0, v)
    assert run.end_to_end_metrics([record], [1.0], 50, 1)["controls_rejected_ratio"] == 0.0
    # at tol 0 a certified control also breaks a baseline guarantee: correct = false
    assert v.broken == (name == "spiral")


@pytest.mark.parametrize("kind", "gm")
def test_a_control_raises_a_run_of_breakpoints(prog, kind):
    p = _small_control("near-critical", kind).params
    R = prog.ReflectionMatrix2(p["a1"], p["a2"])
    f = prog.path_from_json(_small_control("near-critical", kind).doc)
    fixed = prog.solve_fixed_point(R, f, prog.SolveConfig(tol=p["solve_tol"]))
    triple = prog.SolutionTriple(R, f, fixed.g, fixed.m)
    bumped = perturbed_triple(prog, triple, kind, p, 1.0)
    before, after = (getattr(t, kind).values for t in (triple, bumped))
    changed = [k for k, (a, b) in enumerate(zip(before, after)) if a != b]
    assert changed == list(range(changed[0], changed[0] + CONTROL_RUN))


def test_exact_spiral_gap_is_checked_exactly(prog):
    wl = WORKLOADS["spiral"]
    inst = wl._instance("t", np.random.default_rng(0), -2, 200, None)
    out = wl.run(prog, inst, Tracer(False))
    assert wl.check(prog, inst, out).failures == []
    out["gap"] = (out["gap"][0] + prog.Dyadic(1, -900), out["gap"][1])
    v = wl.check(prog, inst, out)
    assert v.broken and "solution gap" in v.failures[0]


# --- decks and harness ---------------------------------------------------------


def test_every_block_covers_every_stratum():
    for dim in range(4):
        for block in range(6):
            cells = sorted(round(stratified(block * BLOCK + r, dim) * BLOCK - _offset(block))
                           for r in range(BLOCK))
            assert cells == list(range(BLOCK))


def test_decks_depend_on_the_seed_only_through_content():
    for wl in WORKLOADS.values():
        a, b = wl.make(5, 0), wl.make(5, 1)
        assert a.segments == b.segments and a.control == b.control
    wc = WORKLOADS["walk-certify"]
    assert wc.make(3, 0).doc == wc.make(3, 0).doc
    assert wc.make(3, 0).doc != wc.make(3, 1).doc


def test_walk_certify_deck_spans_its_range_without_gaps():
    sizes = sorted(WORKLOADS["walk-certify"].make(i, 0).segments for i in range(15))
    assert sizes[0] == 1259 and sizes[7] == 10_000 and sizes[-1] == 79433
    assert max(b / a for a, b in zip(sizes, sizes[1:])) < 1.6


def test_decks_hold_a_negative_control_per_block():
    for wl in WORKLOADS.values():
        controls = [wl.make(i, 0).control for i in range(wl.deck)]
        assert sum(c is not None for c in controls) == wl.deck // BLOCK
        assert {"g", "m"} <= set(controls)


def test_tracing_overhead_pairs_instances_by_name():
    untraced = {"a": 1.0, "b": 2.0, "c": 4.0, "d": 9.0}
    traced = {"a": 1.1, "b": 2.2, "c": 4.4}  # a shorter run covers a prefix
    s, ratio = report.tracing_overhead(traced, untraced)
    assert s == pytest.approx(0.2)
    assert ratio == pytest.approx(0.1)


def test_missing_package_exits_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "spiral", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert "{" not in capsys.readouterr().out
