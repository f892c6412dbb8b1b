from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skorokhod2d.classify import ReflectionMatrix2
from skorokhod2d.counterexample import build_counterexample
from skorokhod2d.dyadic import Dyadic
from skorokhod2d.errors import UsageError
from skorokhod2d.paths import EXACT, FLOAT, PLPath2, scale_components
from skorokhod2d.solver import SolveConfig, solve_fixed_point
from skorokhod2d.verifier import (
    Sector,
    SolutionTriple,
    check_e2_signs,
    compare_solutions,
    sector_of,
    verify,
)


def exact_path(times, values):
    return PLPath2(tuple(times), tuple(values), EXACT)


def make_valid_triple():
    # f drops below zero in component 1, m pushes back along R = I
    R = ReflectionMatrix2(Dyadic(0), Dyadic(0))
    f = exact_path([0, 1, 2], [(0, 1), (-1, 1), (-1, 1)])
    m = exact_path([0, 1, 2], [(0, 0), (1, 0), (1, 0)])
    g = exact_path([0, 1, 2], [(0, 1), (0, 1), (0, 1)])
    return SolutionTriple(R, f, g, m)


def test_valid_triple_passes_exactly():
    rep = verify(make_valid_triple(), tol=0)
    assert rep.passed
    assert rep.eq_residual == 0
    assert rep.min_g == 0
    assert rep.comp_integrals == (Dyadic(0), Dyadic(0))


def test_equation_residual_detected():
    t = make_valid_triple()
    bad_g = exact_path([0, 1, 2], [(0, 1), (Dyadic(1, -3), 1), (0, 1)])
    rep = verify(SolutionTriple(t.R, t.f, bad_g, t.m), tol=Dyadic(1, -10))
    assert not rep.passed
    assert rep.eq_residual == Dyadic(1, -3)


def test_negative_g_detected():
    R = ReflectionMatrix2(Dyadic(0), Dyadic(0))
    f = exact_path([0, 1], [(0, 0), (-1, 0)])
    m = exact_path([0, 1], [(0, 0), (0, 0)])
    g = f  # no pushing: g dips negative
    rep = verify(SolutionTriple(R, f, g, m), tol=0)
    assert not rep.passed
    assert rep.min_g == Dyadic(-1)


def test_decreasing_m_detected():
    t = make_valid_triple()
    m = exact_path([0, 1, 2], [(0, 0), (1, 0), (0, 0)])
    g = exact_path([0, 1, 2], [(0, 1), (0, 1), (-1, 1)])
    rep = verify(SolutionTriple(t.R, t.f, g, m), tol=0)
    assert not rep.passed
    assert rep.monotone_violation == Dyadic(-1)


def test_m_start_budget_from_tail_bound():
    R = ReflectionMatrix2(Dyadic(0), Dyadic(0))
    f = exact_path([0, 1], [(0, 0), (0, 0)])
    m = exact_path([0, 1], [(Dyadic(1, -4), 0), (Dyadic(1, -4), 0)])
    g = exact_path([0, 1], [(Dyadic(1, -4), 0), (Dyadic(1, -4), 0)])
    no_tail = verify(SolutionTriple(R, f, g, m), tol=0)
    assert not no_tail.passed and no_tail.m_start == Dyadic(1, -4)
    with_tail = verify(SolutionTriple(R, f, g, m, tail_bound=Dyadic(1, -3)), tol=0)
    assert with_tail.passed


def test_complementarity_violation_detected():
    # m1 grows while g1 = 1 > 0
    R = ReflectionMatrix2(Dyadic(0), Dyadic(0))
    f = exact_path([0, 1], [(1, 0), (0, 0)])
    m = exact_path([0, 1], [(0, 0), (1, 0)])
    g = exact_path([0, 1], [(1, 0), (1, 0)])
    rep = verify(SolutionTriple(R, f, g, m), tol=0)
    assert not rep.passed
    assert rep.comp_integrals[0] == 1


def test_strict_support_flag():
    t = make_valid_triple()
    rep = verify(t, tol=0, strict=True)
    assert rep.strict_support_ok is True
    lax = verify(t, tol=0)
    assert lax.strict_support_ok is None


def test_report_json_shape():
    doc = verify(make_valid_triple(), tol=0).to_json()
    assert doc["pass"] is True
    assert set(doc) >= {"eq_residual", "min_g", "m_start", "monotone_violation",
                        "comp_integrals", "tol", "pass"}


def test_mode_mismatch_rejected():
    t = make_valid_triple()
    f_float = PLPath2((0.0, 1.0, 2.0), ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), "float")
    with pytest.raises(UsageError):
        SolutionTriple(t.R, f_float, t.g, t.m)


def test_mismatched_time_domains_refused():
    # g and m stop at t = 0.5 while f runs to t = 1: nothing is clamped
    R = ReflectionMatrix2(0.0, 0.0)
    f = PLPath2((0.0, 0.5, 1.0), ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), FLOAT)
    m = PLPath2((0.0, 0.5), ((0.0, 0.0), (1.0, 0.0)), FLOAT)
    g = PLPath2((0.0, 0.5), ((0.0, 1.0), (0.0, 1.0)), FLOAT)
    with pytest.raises(UsageError):
        verify(SolutionTriple(R, f, g, m), tol=1e-12)


@pytest.fixture(scope="module")
def solved_and_raised():
    R = ReflectionMatrix2(-0.6, 0.4)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(201, 2)).cumsum(axis=0)
    vals -= vals[0]
    f = PLPath2(tuple(np.linspace(0.0, 1.0, 201)), tuple(map(tuple, vals)), FLOAT)
    res = solve_fixed_point(R, f, SolveConfig(tol=1e-12))
    # m1 and g jump by R (1e-3, 0) from breakpoint 100 on: g = f + R m still
    # holds, but m1 now grows where g1 > 0
    up = [1e-3 * (i >= 100) for i in range(len(res.m.times))]
    m = PLPath2(res.m.times, tuple((v[0] + d, v[1]) for v, d in zip(res.m.values, up)))
    g = PLPath2(res.g.times, tuple((v[0] + d, v[1] + 0.4 * d)
                                   for v, d in zip(res.g.values, up)))
    return SolutionTriple(R, f, res.g, res.m), SolutionTriple(R, f, g, m)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1e12))
@example(1e-6)
@example(1e-12)
def test_verdict_invariant_under_space_scaling(solved_and_raised, c):
    tol = 1e-9
    for triple, verdict in zip(solved_and_raised, (True, False)):
        assert verify(triple, tol).passed is verdict
        paths = (scale_components(p, c, c) for p in (triple.f, triple.g, triple.m))
        assert verify(SolutionTriple(triple.R, *paths), tol * c).passed is verdict


def test_sector_partition_half_open():
    assert sector_of((Dyadic(0), Dyadic(1))) == Sector.N
    assert sector_of((Dyadic(1), Dyadic(1))) == Sector.N  # boundary u1 = u2 goes north
    assert sector_of((Dyadic(1), Dyadic(0))) == Sector.E
    assert sector_of((Dyadic(1), Dyadic(-1))) == Sector.E
    assert sector_of((Dyadic(0), Dyadic(-1))) == Sector.S
    assert sector_of((Dyadic(-1), Dyadic(-1))) == Sector.S
    assert sector_of((Dyadic(-1), Dyadic(0))) == Sector.W
    assert sector_of((Dyadic(-1), Dyadic(1))) == Sector.W
    assert sector_of((Dyadic(0), Dyadic(0))) == Sector.Origin


def test_infinite_tol_passes_every_triple():
    # like compare_solutions, verify takes tol = inf in both modes; the
    # complementarity budget stays infinite where m's total variation is
    # exact or zero
    triple = build_counterexample(Dyadic(-2), depth=8).triple()
    rep = verify(triple, float("inf"))
    assert rep.passed and rep.to_json()["tol"] == float("inf")
    raised = replace(triple, g=scale_components(triple.g, Dyadic(2), Dyadic(2)))
    assert not verify(raised, 0).passed
    assert verify(raised, float("inf")).passed
    f = PLPath2((0.0, 1.0), ((1.0, 1.0), (2.0, 2.0)), FLOAT)
    still = PLPath2((0.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), FLOAT)
    assert verify(SolutionTriple(ReflectionMatrix2(0.5, 0.5), f, f, still), float("inf")).passed


def test_compare_counterexample_solutions():
    b = build_counterexample(Dyadic(-2), depth=8)
    # tol weighs values only: an infinite one passes everything, exact paths included
    loose = compare_solutions(b.triple(), b.triple_bar(), tol=float("inf"))
    assert loose.max_v == Dyadic(1) and loose.v_monotone_on_support
    diag = compare_solutions(b.triple(), b.triple_bar(), tol=0)
    # u = m - mbar is the spiral itself, so v expands toward 1
    assert diag.max_v == Dyadic(1)
    assert not diag.v_monotone_on_support
    # spiral breakpoints sit on the reference lines or just off them, so the
    # sequence alternates between W and E in pairs
    assert diag.sector_sequence[-1] == Sector.W
    assert set(diag.sector_sequence) == {Sector.W, Sector.E}


def test_compare_rejects_mismatched_inputs():
    b = build_counterexample(Dyadic(-2), depth=8)
    other = build_counterexample(Dyadic(-4), depth=8)
    with pytest.raises(UsageError):
        compare_solutions(b.triple(), other.triple(), tol=0)
    moved = replace(b.triple_bar(), f=scale_components(b.f, 2, 2))
    with pytest.raises(UsageError, match="different driving functions"):
        compare_solutions(b.triple(), moved, tol=0)
    # matrix entries are unitless: they match exactly, or within CRITICAL_BAND
    # when one is a float, whatever the tol for values
    zero = PLPath2((0.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), FLOAT)
    exact_zero = PLPath2((0, 1), ((0, 0), (0, 0)), EXACT)
    for (a, b_, path), same in [
        ((-1.0, -1.0 + 1e-4, zero), False),
        ((-1.0, -1.0 + 2.0**-45, zero), True),
        ((Dyadic(-1), -(1 + Dyadic(1, -50)), exact_zero), False),
        ((-1, np.int64(-1), exact_zero), True),
    ]:
        s1, s2 = (SolutionTriple(ReflectionMatrix2(a1, 1), path, path, path) for a1 in (a, b_))
        if same:
            assert compare_solutions(s1, s2, tol=1e-3).max_v == 0
        else:
            with pytest.raises(UsageError):
                compare_solutions(s1, s2, tol=1e-3)


def test_compare_identical_solutions_flat():
    b = build_counterexample(Dyadic(-2), depth=8)
    diag = compare_solutions(b.triple(), b.triple(), tol=0)
    assert diag.max_v == 0
    assert diag.v_monotone_on_support


def test_e2_requires_canonical_matrix():
    b = build_counterexample(Dyadic(-2), depth=8)
    with pytest.raises(UsageError):
        check_e2_signs(b.triple(), b.triple_bar())
    # the same matrix rule as compare_solutions; tol is the sign budget only
    zero = PLPath2((0.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), FLOAT)
    near = SolutionTriple(ReflectionMatrix2(-1.0 - 2.0**-45, 1.0), zero, zero, zero)
    assert check_e2_signs(near, near)
    off = SolutionTriple(ReflectionMatrix2(-1.0 - 1e-4, 1.0), zero, zero, zero)
    with pytest.raises(UsageError):
        check_e2_signs(off, off, tol=1e-3)


def test_e2_sign_check_on_canonical_pair():
    R = ReflectionMatrix2(Dyadic(-1), Dyadic(1))
    f = exact_path([0, 1], [(0, 0), (0, 0)])
    g = exact_path([0, 1], [(0, 0), (0, 0)])
    # u = m1 - m2 moves from (1, 1) toward the origin: both products <= 0
    m1 = exact_path([0, 1], [(1, 1), (1, 1)])
    m2 = exact_path([0, 1], [(0, 0), (1, 1)])
    s1 = SolutionTriple(R, f, g, m1)
    s2 = SolutionTriple(R, f, g, m2)
    rep = check_e2_signs(s1, s2)
    assert rep.ok and bool(rep)
    # u moving away from the origin violates the sign condition
    m3 = exact_path([0, 1], [(0, 0), (1, 1)])
    m4 = exact_path([0, 1], [(0, 0), (0, 0)])
    rep2 = check_e2_signs(SolutionTriple(R, f, g, m3), SolutionTriple(R, f, g, m4))
    assert not rep2.ok
    assert rep2.first_violation == 0


def test_e2_sign_check_is_exact_on_exact_triples():
    # u(0) = (1 + 2^-60, -1), u(1) = (1 + 2^-60, -1 + 2^-70): the product
    # (u1 + u2) du2 = (2^-60 + 2^-71) 2^-70 > 0 violates E2, and a float cast
    # of u rounds du2 to 0
    R = ReflectionMatrix2(Dyadic(-1), Dyadic(1))
    zero = exact_path([0, 1], [(0, 0), (0, 0)])
    a = Dyadic(1) + Dyadic(1, -60)
    u = exact_path([0, 1], [(a, -1), (a, Dyadic(-1) + Dyadic(1, -70))])
    s1, s2 = SolutionTriple(R, zero, zero, u), SolutionTriple(R, zero, zero, zero)
    rep = check_e2_signs(s1, s2, tol=0)
    assert not rep.ok and rep.first_violation == 0
    assert rep.worst_product == float((Dyadic(1, -60) + Dyadic(1, -71)) * Dyadic(1, -70))
    # an infinite budget passes, as in verify
    assert check_e2_signs(s1, s2, tol=float("inf")).ok


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_compare_sectors_on_the_boundary_rays(mode):
    # the difference path sits at the origin, then on the eight boundary
    # rays of test_sector_partition_half_open, each owned by one sector
    points = [(0, 0), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
    times = range(len(points))
    u = PLPath2(times, points, mode)
    zero = PLPath2(times, [(0, 0)] * len(points), mode)
    R = ReflectionMatrix2(0, 0)
    diag = compare_solutions(SolutionTriple(R, zero, zero, u), SolutionTriple(R, zero, zero, zero), tol=0)
    assert diag.sector_sequence == (Sector.Origin, Sector.N, Sector.N, Sector.E, Sector.E,
                                    Sector.S, Sector.S, Sector.W, Sector.W)


def scalar_sector(u1, u2):
    # reference: the half-open rule one point at a time
    if u2 > 0 and -u2 < u1 <= u2:
        return Sector.N
    if u1 > 0 and -u1 <= u2 < u1:
        return Sector.E
    if u2 < 0 and u2 <= u1 < -u2:
        return Sector.S
    if u1 < 0 and u1 < u2 <= -u1:
        return Sector.W
    return Sector.Origin


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_compare_sectors_match_the_scalar_rule(mode):
    # a lattice walk through every ray and sector, and random float points
    points = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    if mode == FLOAT:
        points += [tuple(p) for p in np.random.default_rng(0).normal(size=(200, 2))]
    u = PLPath2(range(len(points)), points, mode)
    zero = PLPath2(u.t, np.zeros((len(points), 2), dtype=int), mode)
    R = ReflectionMatrix2(0, 0)
    diag = compare_solutions(SolutionTriple(R, zero, zero, u), SolutionTriple(R, zero, zero, zero), tol=0)
    assert diag.sector_sequence == tuple(scalar_sector(*p) for p in u.values)
