import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skorokhod2d import solver
from skorokhod2d.classify import CRITICAL_BAND, ReflectionMatrix2, is_completely_s
from skorokhod2d.dyadic import Dyadic
from skorokhod2d.errors import DivergenceError, StepInfeasibleError, UsageError
from skorokhod2d.paths import EXACT, FLOAT, FLOAT_DEDUP, PLPath2, sup_distance, with_times
from skorokhod2d.solver import (
    RUN_GATE,
    SolveConfig,
    _kink_times,
    _lcp2,
    _march,
    _march_rows,
    _Rates,
    _run,
    lcp_step,
    skorokhod_1d,
    solve_fixed_point,
    solve_grid,
)
from skorokhod2d.verifier import SolutionTriple, verify


def float_path(times, values):
    return PLPath2(tuple(float(t) for t in times),
                   tuple((float(a), float(b)) for a, b in values), FLOAT)


IDENTITY = ReflectionMatrix2(0.0, 0.0)


def brute_regulator(h):
    # independent oracle: m(t) = sup_{s<=t} max(-h(s), 0)
    out, best = [], 0.0
    for x in h:
        best = max(best, -x, 0.0)
        out.append(best)
    return np.array(out)


def test_skorokhod_1d_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.normal(size=50).cumsum()
        np.testing.assert_allclose(skorokhod_1d(h), brute_regulator(h), atol=0)


def test_skorokhod_1d_invariants():
    rng = np.random.default_rng(1)
    h = rng.normal(size=200).cumsum()
    m = skorokhod_1d(h)
    assert np.all(np.diff(m) >= 0)
    assert np.all(h + m >= -1e-15)
    assert m[0] == max(-h[0], 0.0)


def test_identity_matrix_decouples():
    ts = np.linspace(0.0, 1.0, 41)
    f = float_path(ts, [(np.sin(7 * t) - 0.5 * t, np.cos(5 * t) - 1.0 + 0.2 * t)
                        for t in ts])
    # shift so the start is feasible
    v0 = f.values[0]
    f = float_path(ts, [(a - v0[0], b - v0[1] + 0.0) for a, b in f.values])
    res = solve_fixed_point(IDENTITY, f, SolveConfig(tol=1e-12))
    assert res.converged
    f1 = np.array([v[0] for v in f.values])
    f2 = np.array([v[1] for v in f.values])
    m1 = np.interp(ts, [float(t) for t in res.m.times],
                   [v[0] for v in res.m.values])
    m2 = np.interp(ts, [float(t) for t in res.m.times],
                   [v[1] for v in res.m.values])
    np.testing.assert_allclose(m1, skorokhod_1d(f1), atol=1e-10)
    np.testing.assert_allclose(m2, skorokhod_1d(f2), atol=1e-10)


def test_linear_drift_closed_form():
    # f = (-t, 1) under R = I gives g = (0, 1), m = (t, 0)
    f = float_path([0, 0.5, 1], [(0, 1), (-0.5, 1), (-1, 1)])
    for solver in (solve_fixed_point, solve_grid):
        res = solver(IDENTITY, f, SolveConfig(tol=1e-12))
        assert res.converged
        for t, g, m in zip(res.m.times, res.g.values, res.m.values):
            assert g[0] == pytest.approx(0.0, abs=1e-12)
            assert g[1] == pytest.approx(1.0, abs=1e-12)
            assert m[0] == pytest.approx(float(t), abs=1e-12)
            assert m[1] == pytest.approx(0.0, abs=1e-12)


def test_coupled_closed_form():
    # f = (-t, 0) with a2 = -1/2: m1 = t and the push drags g2 down, so
    # m2 must also act; stationary solution solves the 2x2 system
    R = ReflectionMatrix2(0.0, -0.5)
    f = float_path([0, 1], [(0, 0), (-1, 0)])
    res = solve_fixed_point(R, f, SolveConfig(tol=1e-13))
    assert res.converged
    # g = f + R m with m = (t, t/2): g1 = 0, g2 = -t/2 + t/2 = 0
    end_m = res.m.values[-1]
    assert end_m[0] == pytest.approx(1.0, abs=1e-10)
    assert end_m[1] == pytest.approx(0.5, abs=1e-10)


def test_solvers_agree_and_verify():
    rng = np.random.default_rng(7)
    R = ReflectionMatrix2(-0.6, 0.4)
    ts = np.linspace(0.0, 1.0, 21)
    vals = rng.normal(size=(21, 2)).cumsum(axis=0)
    vals -= vals[0]
    f = float_path(ts, [tuple(v) for v in vals])
    cfg = SolveConfig(tol=1e-12)
    r1 = solve_fixed_point(R, f, cfg)
    r2 = solve_grid(R, f, cfg)
    assert r1.converged and r2.converged
    assert sup_distance(r1.m, r2.m) < 1e-8
    for r in (r1, r2):
        rep = verify(SolutionTriple(R, f, r.g, r.m), tol=1e-10)
        assert rep.passed, rep.to_json()


@pytest.mark.parametrize("solve", [solve_fixed_point, solve_grid])
def test_solution_holds_g_and_m_on_one_time_array(solve):
    # the grid of f merged with a coarser one, so the grid is built, not f's
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(41, 2)).cumsum(axis=0) * 0.2
    f = float_path(np.linspace(0.0, 1.0, 41), [tuple(v) for v in vals - vals[0] + 0.1])
    R = ReflectionMatrix2(-0.6, 0.4)
    res = solve(R, f, SolveConfig(tol=1e-12, grid=np.linspace(0.0, 1.0, 7)))
    assert res.g.t is res.m.t
    for a in (res.g.t, res.g.x, res.m.x):
        assert a.flags.c_contiguous and not a.flags.writeable
    assert verify(SolutionTriple(R, f, res.g, res.m), tol=1e-10).passed


def test_converged_result_passes_verify_at_ten_tol():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a1 = rng.uniform(-0.9, 0.9)
        a2 = rng.uniform(-0.9, 0.9)
        R = ReflectionMatrix2(a1, a2)
        ts = np.linspace(0.0, 1.0, 16)
        vals = rng.normal(size=(16, 2)).cumsum(axis=0)
        vals -= vals[0]
        f = float_path(ts, [tuple(v) for v in vals])
        cfg = SolveConfig(tol=1e-11)
        res = solve_fixed_point(R, f, cfg)
        assert res.converged
        assert verify(SolutionTriple(R, f, res.g, res.m), tol=10 * cfg.tol).passed


def test_explicit_grid_keeps_driving_breakpoints():
    f = float_path([0, 0.3, 1], [(0, 0), (-1, 0), (0.5, 0)])
    cfg = SolveConfig(tol=1e-12, grid=np.linspace(0.0, 1.0, 5))
    res = solve_fixed_point(IDENTITY, f, cfg)
    assert 0.3 in [float(t) for t in res.m.times]
    assert verify(SolutionTriple(IDENTITY, f, res.g, res.m), tol=1e-10).passed


def test_explicit_grid_near_driving_breakpoint_keeps_it():
    # the grid time 0.5 - 5e-14 is the same breakpoint as f's 0.5; f's wins
    f = float_path([0, 0.5, 1], [(0, 0), (-1, 0.5), (0.5, 0)])
    cfg = SolveConfig(tol=1e-12, grid=[0.0, 0.5 - 5e-14, 1.0])
    for solver in (solve_fixed_point, solve_grid):
        res = solver(IDENTITY, f, cfg)
        assert 0.5 in res.g.times and 0.5 in res.m.times
        assert 0.5 - 5e-14 not in res.g.times
        assert verify(SolutionTriple(IDENTITY, f, res.g, res.m), tol=1e-10).passed


def test_grid_outside_driving_domain_is_refused():
    f = float_path([0, 1], [(0, 0), (-1, 0.5)])
    for solver in (solve_fixed_point, solve_grid):
        for grid in ([0.0, 1.0, 2.0], [-1.0, 0.5, 1.0]):
            with pytest.raises(UsageError):
                solver(IDENTITY, f, SolveConfig(tol=1e-12, grid=grid))
        # an end within the breakpoint rule is f's own end
        res = solver(IDENTITY, f, SolveConfig(tol=1e-12, grid=[0.0, 0.5, 1.0 + 1e-14]))
        assert res.g.times == (0.0, 0.5, 1.0)


def test_damping_reaches_critical_case():
    R = ReflectionMatrix2(-1.0, 1.0)
    ts = np.linspace(0.0, 1.0, 33)
    f = float_path(ts, [(np.sin(9 * t), np.cos(6 * t) - 1.0) for t in ts])
    v0 = f.values[0]
    f = float_path(ts, [(a - v0[0], b - v0[1]) for a, b in f.values])
    res = solve_fixed_point(R, f, SolveConfig(tol=1e-10, damping=0.5))
    assert res.converged
    assert verify(SolutionTriple(R, f, res.g, res.m), tol=1e-8).passed


def test_input_validation():
    f_exact = PLPath2((Dyadic(0), Dyadic(1)), ((Dyadic(0), Dyadic(0)),) * 2, EXACT)
    with pytest.raises(UsageError):
        solve_fixed_point(IDENTITY, f_exact, SolveConfig())
    f_neg = float_path([0, 1], [(-1, 0), (0, 0)])
    with pytest.raises(UsageError):
        solve_fixed_point(IDENTITY, f_neg, SolveConfig())
    with pytest.raises(UsageError):
        SolveConfig(tol=0)
    with pytest.raises(UsageError):
        SolveConfig(damping=0)
    with pytest.raises(UsageError, match="max_iter must be >= 1"):
        SolveConfig(max_iter=0)
    f_pos = float_path([0, 1], [(1, 1), (2, 2)])
    for init in ((np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(1))):
        with pytest.raises(UsageError, match="init arrays must match the grid length"):
            solve_fixed_point(IDENTITY, f_pos, SolveConfig(), init=init)
    for grid in ([1.0, 0.5], [0.0], [0.0, float("nan"), 1.0], [0.0, 0.5, float("inf")]):
        with pytest.raises(UsageError, match="grid must be strictly increasing"):
            SolveConfig(grid=grid)
    with pytest.raises(UsageError):
        solve_grid(ReflectionMatrix2(-1.0, -2.0),
                   float_path([0, 1], [(0, 0), (1, 1)]), SolveConfig())


@pytest.mark.parametrize("bad", [2.5, True, "5"])
def test_max_iter_must_be_an_integer(bad):
    # unchecked, 2.5 fails inside the solve (range of a float) and True runs one sweep
    with pytest.raises(UsageError, match="max_iter must be an integer"):
        SolveConfig(max_iter=bad)


@pytest.mark.parametrize("field", ["tol", "damping"])
@pytest.mark.parametrize("bad", ["1e-9", True])
def test_tol_and_damping_must_be_real_numbers(field, bad):
    # unchecked, "1e-9" raised TypeError from the comparison and True passed as 1
    with pytest.raises(UsageError, match=f"{field} must be a real number, not {bad!r}"):
        SolveConfig(**{field: bad})


def test_max_iter_takes_a_numpy_integer():
    f = float_path([0, 1], [(1, 1), (2, 2)])
    res = solve_fixed_point(IDENTITY, f, SolveConfig(max_iter=np.int64(5)))
    assert res.converged and res.iterations <= 5


@pytest.mark.parametrize("coord", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_point_refuses_a_non_finite_init_before_any_sweep(bad, coord, monkeypatch):
    # a NaN init would sweep to max_iter and fail in the result's path, an
    # infinite one overflow in the first sweep
    ts = np.linspace(0.0, 1.0, 1001)
    f = PLPath2(ts, np.column_stack([1.0 + ts, 1.0 - 0.5 * ts]), FLOAT)
    init = [np.zeros(1001), np.zeros(1001)]
    init[coord][500] = bad
    monkeypatch.setattr(solver, "skorokhod_1d", lambda h: pytest.fail("a sweep ran"))
    with pytest.raises(UsageError, match="init arrays must be finite"):
        solve_fixed_point(ReflectionMatrix2(0.5, -0.5), f, SolveConfig(), init=tuple(init))


@pytest.mark.parametrize("grid", [None, [0.0, 0.5, 2.0]])
@pytest.mark.parametrize("solve", [solve_fixed_point, solve_grid])
def test_solvers_refuse_an_increment_past_the_double_range(solve, grid, monkeypatch):
    # f1 falls from 1.5e308 to -1.5e308, an increment of -3e308; unchecked,
    # the fixed-point solver returned g1 = -7.5e291 as converged and the grid
    # solver failed in its result's path
    f = float_path([0, 1, 2], [(1.5e308, 1), (-1.5e308, 1), (0, 1)])
    monkeypatch.setattr(solver, "skorokhod_1d", lambda h: pytest.fail("a sweep ran"))
    monkeypatch.setattr(solver, "_march", lambda *args: pytest.fail("a march ran"))
    with pytest.raises(UsageError, match="an increment of the driving function is beyond the double range"):
        solve(ReflectionMatrix2(0.3, -0.4), f, SolveConfig(grid=grid))


def test_grid_solver_refuses_a_slope_past_the_double_range(monkeypatch):
    # a segment 5e-324 long rises by 1: its slope is past the double range
    f = float_path([0.0, 5e-324, 1.0], [(1, 1), (2, 2), (1, 1)])
    R = ReflectionMatrix2(0.3, -0.4)
    monkeypatch.setattr(solver, "_march", lambda *args: pytest.fail("a march ran"))
    with pytest.raises(UsageError, match="a slope of the driving function is beyond the double range"):
        solve_grid(R, f, SolveConfig())
    # the fixed-point solver, which calls no `_march`, reads no slope there and solves it
    res = solve_fixed_point(R, f, SolveConfig())
    assert res.converged
    assert verify(SolutionTriple(R, f, res.g, res.m), tol=1e-12).passed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("times, values", [
    # f1 falls by 1.1 over a segment 5e-324 long
    ([0.0, 5e-324, 1.0], [(0.1, 1), (-1, 1), (-1, 1)]),
    # f1 falls by 1.7e308 over 0.9: a finite increment, a slope of -1.9e308
    ([0.0, 0.9, 1.0], [(1e308, 1), (-7e307, 1), (-7e307, 1)]),
], ids=["short-segment", "steep-segment"])
@pytest.mark.parametrize("solve", [solve_fixed_point, solve_grid])
def test_solvers_refuse_a_slope_past_the_double_range_that_a_march_needs(solve, times, values):
    # m1 rises on the first segment, so the fixed-point solver's kink search
    # marches it: its own division overflowed there, with numpy warnings, and
    # on the steep segment it returned converged True with m1 rising over the
    # whole segment although g1(0) = 1e308
    f = float_path(times, values)
    with pytest.raises(UsageError, match="a slope of the driving function is beyond the double range"):
        solve(ReflectionMatrix2(0.3, -0.4), f, SolveConfig())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [solve_fixed_point, solve_grid])
def test_solvers_read_f_on_a_grid_past_its_product_range(solve):
    # f at 5e5 is 5e302, but (t - t0)(v1 - v0) = 5e5 * 1e303 overflows: f
    # read there was inf, and the solvers refused the driver
    f = float_path([0.0, 1e6], [(0, 0), (1e303, 0)])
    R = ReflectionMatrix2(-0.5, 0.5)
    res = solve(R, f, SolveConfig(grid=[0, 5e5, 1e6]))
    assert res.converged
    assert res.g.values == ((0.0, 0.0), (5e302, 0.0), (1e303, 0.0))
    assert res.m.values == ((0.0, 0.0),) * 3


def test_lcp_step_no_push_needed():
    g, dm = lcp_step(IDENTITY, (1.0, 2.0), (0.5, -1.0))
    assert dm == (0.0, 0.0)
    assert g == (1.5, 1.0)


def test_lcp_step_single_push():
    g, dm = lcp_step(IDENTITY, (1.0, 1.0), (-2.0, 0.0))
    assert dm == (1.0, 0.0)
    assert g == (0.0, 1.0)


def test_lcp_step_coupled_push():
    # a1 = -1/2: pushing m2 drags g1 down, both constraints bind
    R = ReflectionMatrix2(-0.5, -0.5)
    g, dm = lcp_step(R, (0.0, 0.0), (-1.0, -1.0))
    assert g == (0.0, 0.0)
    # dm solves (I + A) dm = (1, 1) with det = 3/4
    assert dm[0] == pytest.approx(2.0, abs=1e-12)
    assert dm[1] == pytest.approx(2.0, abs=1e-12)


def test_lcp_step_tie_breaks_to_smallest_support():
    # critical matrix: both {1} and {1,2} style supports can be admissible
    R = ReflectionMatrix2(-2.0, 1.0)
    g, dm = lcp_step(R, (0.0, 1.0), (-1.0, 0.0))
    assert dm == (1.0, 0.0)
    assert g == (0.0, 2.0)


def test_lcp_step_infeasible():
    R = ReflectionMatrix2(-1.0, -2.0)  # not completely-S
    with pytest.raises(StepInfeasibleError):
        lcp_step(R, (0.0, 0.0), (-1.0, -1.0))


def test_lcp_step_residual_invariants():
    rng = np.random.default_rng(3)
    R = ReflectionMatrix2(-0.7, 0.9)
    for _ in range(200):
        gp = tuple(rng.uniform(0, 2, size=2))
        df = tuple(rng.uniform(-2, 2, size=2))
        g, dm = lcp_step(R, gp, df)
        assert min(g) >= 0 and min(dm) >= 0
        # linear relation g = g_prev + df + R dm
        assert g[0] == pytest.approx(gp[0] + df[0] + dm[0] - 0.7 * dm[1], abs=1e-9)
        assert g[1] == pytest.approx(gp[1] + df[1] + 0.9 * dm[0] + dm[1], abs=1e-9)
        # complementarity
        assert g[0] * dm[0] <= 1e-9 and g[1] * dm[1] <= 1e-9


matrix_entries = st.floats(min_value=-0.85, max_value=0.85,
                           allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(matrix_entries, matrix_entries, st.integers(min_value=0, max_value=2**31 - 1))
def test_solvers_agree_property(a1, a2, seed):
    R = ReflectionMatrix2(a1, a2)
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, 11)
    vals = rng.normal(size=(11, 2)).cumsum(axis=0)
    vals -= vals[0]
    f = float_path(ts, [tuple(v) for v in vals])
    cfg = SolveConfig(tol=1e-12)
    r1 = solve_fixed_point(R, f, cfg)
    r2 = solve_grid(R, f, cfg)
    assert r1.converged
    assert sup_distance(r1.m, r2.m) < 1e-7


# a smaller nonzero entry times a 2^-40-scaled value can go subnormal, where
# scaling by 2^k is no longer exact
scale_free_entries = matrix_entries.filter(lambda a: a == 0 or abs(a) >= 2.0**-20)


@settings(max_examples=25, deadline=None)
@given(scale_free_entries, scale_free_entries, st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=-40, max_value=40))
@example(-0.6, 0.4, 2, -40)
@example(-0.6, 0.4, 2, -20)
def test_solvers_commute_with_power_of_two_rescaling(a1, a2, seed, k):
    # time t -> 2^k t and space x -> 2^k x (with tol) are exact in binary
    # floating point, so undoing them must give back the same bits
    R = ReflectionMatrix2(a1, a2)
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, 41)
    vals = rng.normal(size=(41, 2)).cumsum(axis=0)
    vals -= vals[0]
    c = 2.0**k
    for solver in (solve_fixed_point, solve_grid):
        base = solver(R, float_path(ts, vals), SolveConfig(tol=1e-12))
        in_time = solver(R, float_path(ts * c, vals), SolveConfig(tol=1e-12))
        in_space = solver(R, float_path(ts, vals * c), SolveConfig(tol=1e-12 * c))
        assert np.array_equal(np.array(in_time.g.times) / c, base.g.times)
        assert in_time.g.values == base.g.values
        assert in_time.m.values == base.m.values
        assert in_space.g.times == base.g.times
        assert np.array_equal(np.array(in_space.g.values) / c, base.g.values)
        assert np.array_equal(np.array(in_space.m.values) / c, base.m.values)


@settings(max_examples=20, deadline=None)
@given(matrix_entries, matrix_entries, st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=-12, max_value=12))
@example(-0.6, 0.4, 3, -12)
@example(-0.6, 0.4, 3, 12)
def test_solvers_commute_with_any_time_rescaling(a1, a2, seed, e):
    # t -> c t rounds every breakpoint unless c is a power of two, so the
    # rescaled solution, mapped back, agrees with the original only up to
    # rounding: a relative 1e-9 of sup|f|
    R = ReflectionMatrix2(a1, a2)
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, 201)
    vals = rng.normal(size=(201, 2)).cumsum(axis=0)
    vals -= vals[0]
    c = 10.0**e
    bound = 1e-9 * np.max(np.abs(vals))
    for solver in (solve_fixed_point, solve_grid):
        base = solver(R, float_path(ts, vals), SolveConfig(tol=1e-12))
        scaled = solver(R, float_path(ts * c, vals), SolveConfig(tol=1e-12))
        for p, q in ((base.g, scaled.g), (base.m, scaled.m)):
            back = PLPath2(tuple(np.array(q.times) / c), q.values, FLOAT)
            assert sup_distance(p, back) <= bound


def _sample(path, times):
    return np.column_stack([np.interp(times, path.t, path.x[:, j]) for j in (0, 1)])


@settings(max_examples=20, deadline=None)
@given(matrix_entries, matrix_entries, st.integers(min_value=0, max_value=2**31 - 1))
@example(-0.6, 0.4, 5)
def test_solvers_commute_with_pl_time_change(a1, a2, seed):
    # phi: [0, 1] -> [0, 1] increasing PL with 5 random interior breakpoints;
    # the solution for f o phi, read through phi^-1, is the solution for f.
    # Both are PL, so their sup distance is attained at a breakpoint of one
    # of them; phi rounds, so they agree to a relative 1e-9 of sup|f|
    R = ReflectionMatrix2(a1, a2)
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, 41)
    vals = rng.normal(size=(41, 2)).cumsum(axis=0)
    vals -= vals[0]
    s_phi = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 6))])
    t_phi = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 6))])
    s_phi, t_phi = s_phi / s_phi[-1], t_phi / t_phi[-1]
    s_grid = np.union1d(np.interp(ts, t_phi, s_phi), s_phi)
    f = float_path(ts, vals)
    f_phi = PLPath2(s_grid, _sample(f, np.interp(s_grid, s_phi, t_phi)), FLOAT)
    bound = 1e-9 * np.max(np.abs(vals))
    for solver in (solve_fixed_point, solve_grid):
        base = solver(R, f, SolveConfig(tol=1e-12))
        changed = solver(R, f_phi, SolveConfig(tol=1e-12))
        for p, q in ((base.g, changed.g), (base.m, changed.m)):
            assert np.max(np.abs(p.x - _sample(q, np.interp(p.t, t_phi, s_phi)))) <= bound
            assert np.max(np.abs(q.x - _sample(p, np.interp(q.t, s_phi, t_phi)))) <= bound


@pytest.mark.parametrize("solve", [
    pytest.param(solve_fixed_point, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: `_joining` merges a kink into a grid point within "
        "2^-40 |t|, a radius that grows with the time origin"))),
    solve_grid,
])
def test_solvers_certify_a_walk_shifted_in_time(solve):
    # The problem is invariant under a shift of time. At t near 2^30 the
    # merge radius 2^-40 |t| = 2^-10 is twice the grid's spacing, so the
    # fixed-point solve keeps no kink (2,001 points against `solve_grid`'s
    # 2,053), still reports converged, and leaves int g dm = 8.3e-4 and
    # 2.8e-3, past the budget of 1e-4 sup|f|
    rng = np.random.default_rng(1)
    steps = rng.standard_normal((2000, 2)) * 2000**-0.5
    x = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]) + 0.1
    f = float_path(np.linspace(0.0, 1.0, 2001) + 2**30, x)
    sup = float(np.max(np.abs(f.x)))
    R = ReflectionMatrix2(0.9, -0.9)
    res = solve(R, f, SolveConfig(tol=1e-12 * sup))
    assert res.converged
    assert verify(SolutionTriple(R, f, res.g, res.m), 1e-4 * sup).passed


def corner_walk(seed, n=200, amp=0.02, drift=5.0):
    # a small random walk pulled into the corner by 5t * (1, 1): both
    # regulators switch on and off at many points inside grid segments
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n + 1)
    vals = np.vstack([np.zeros((1, 2)), np.cumsum(rng.normal(size=(n, 2)) * amp / np.sqrt(n), axis=0)])
    vals -= drift * ts[:, None]
    vals[0] = np.maximum(vals[0], 0.0)
    return PLPath2(ts, vals, FLOAT)


@pytest.mark.parametrize("a", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("seed", range(4))
def test_fixed_point_kinks_match_grid_solver_breakpoints(a, seed):
    # the fixed-point kinks come from the marching solver's event step, so
    # both solvers find the same breakpoints and the same regulator
    f = corner_walk(seed)
    sup = float(np.max(np.abs(f.x)))
    R = ReflectionMatrix2(a, -a)
    cfg = SolveConfig(tol=1e-12 * sup)
    fixed = solve_fixed_point(R, f, cfg)
    grid = solve_grid(R, f, cfg)
    assert fixed.converged
    assert len(fixed.m) <= 1.5 * len(grid.m)
    assert sup_distance(fixed.m, grid.m) <= 1e-11 * sup


def test_diverging_sweeps_raise_divergence_error():
    # R = (-2, -2) is not completely-S: the sweeps overflow, and the error
    # names the divergence instead of failing later on the output path
    ts = np.linspace(0.0, 1.0, 21)
    f = float_path(ts, [(np.sin(5 * t), np.cos(3 * t) - 1.0) for t in ts])
    with pytest.raises(DivergenceError, match="diverged") as info:
        solve_fixed_point(ReflectionMatrix2(-2.0, -2.0), f, SolveConfig())
    assert info.value.round_index == 1
    assert 1 < info.value.sweep < SolveConfig().max_iter


# --- extrapolated sweeps ------------------------------------------------------


def plain_sweep_change(R, f, res, damping):
    # one plain Gauss-Seidel sweep from the returned m on the returned grid
    (f1, f2), (m1, m2) = with_times(f, res.m.t).x.T, res.m.x.T
    a1, a2, lam = float(R.a1), float(R.a2), damping
    n1 = (1 - lam) * m1 + lam * skorokhod_1d(f1 + a1 * m2)
    n2 = (1 - lam) * m2 + lam * skorokhod_1d(f2 + a2 * n1)
    return max(float(np.max(np.abs(n1 - m1))), float(np.max(np.abs(n2 - m2))))


def contraction_problems():
    # the criterion-3 problems: |a1*a2| <= 0.81, 20-segment walks started
    # inside the quadrant, each from zero and from a ramp
    rng = np.random.default_rng(2024)
    for _ in range(50):
        while True:
            a1, a2 = rng.uniform(-0.95, 0.95, size=2)
            if abs(a1 * a2) <= 0.81:
                break
        start = (abs(rng.normal()), abs(rng.normal()))
        ts = np.linspace(0.0, 1.0, 21)
        vals = np.vstack([[0.0, 0.0], np.cumsum(rng.normal(size=(20, 2)), axis=0)]) + start
        f = PLPath2(ts, vals, FLOAT)
        for init in (None, (5.0 * ts, 5.0 * ts)):
            yield ReflectionMatrix2(a1, a2), f, SolveConfig(tol=1e-10, max_iter=200), init


def convergence_cases():
    for a in (0.9, 0.95, 0.99):
        for seed in range(4):
            f = corner_walk(seed)
            yield ReflectionMatrix2(a, -a), f, SolveConfig(tol=1e-12 * float(np.max(np.abs(f.x)))), None
    yield from contraction_problems()
    ts = np.linspace(0.0, 1.0, 33)
    f = float_path(ts, [(np.sin(9 * t), np.cos(6 * t) - 1.0) for t in ts])
    yield ReflectionMatrix2(-1.0, 1.0), f, SolveConfig(tol=1e-10, damping=0.5), None


def test_converged_means_one_more_plain_sweep_stays_within_tol():
    # a jump is not the stopping rule: the returned m is the output of a
    # plain sweep that moved less than tol, and the next one moves less too
    checked = 0
    for R, f, cfg, init in convergence_cases():
        res = solve_fixed_point(R, f, cfg, init=init)
        if res.converged:
            checked += 1
            assert plain_sweep_change(R, f, res, cfg.damping) < cfg.tol
    assert checked == 12 + 100 + 1


@pytest.mark.parametrize("a", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("seed", range(4))
def test_extrapolated_sweeps_stay_few_near_the_critical_radius(a, seed):
    # plain sweeps contract by about a^2 per sweep, about 1,100-1,200 sweeps
    # at a = 0.99; the jump along the slow mode leaves a handful, and the
    # converged state is close enough that no inserted kink is found again
    f = corner_walk(seed)
    R = ReflectionMatrix2(a, -a)
    cfg = SolveConfig(tol=1e-12 * float(np.max(np.abs(f.x))))
    fixed = solve_fixed_point(R, f, cfg)
    grid = solve_grid(R, f, cfg)
    assert fixed.converged
    assert fixed.iterations <= 50
    assert len(fixed.m) == len(grid.m)


def spy_sweeps_per_round(monkeypatch):
    # sweeps per enrichment round, filled in as the solver runs: a sweep is
    # two regulator calls, and a kink search ends every round that has one
    regulator, search, calls = skorokhod_1d, _kink_times, [0]

    def sweep(h):
        calls[-1] += 1
        return regulator(h)

    def kinks(*args):
        calls.append(0)
        return search(*args)

    monkeypatch.setattr(solver, "skorokhod_1d", sweep)
    monkeypatch.setattr(solver, "_kink_times", kinks)
    return lambda: [c // 2 for c in calls]


@pytest.mark.parametrize("seed, points", [(1, 2008), (2, 2022), (3, 2056)])
def test_damped_critical_rounds_after_the_first_take_one_sweep(seed, points, monkeypatch):
    # damping 0.5 at the critical (-1, 1) re-converges at 0.5 per sweep. Each
    # round starts from the march's own m at the kinks it inserts, so the
    # rounds after the first start at the fixed point, and one that moves m
    # by less than tol in its first sweep ends the enrichment. Seed 0 is left
    # out: its first round inserts kinks a hair after grid points where
    # `solve_grid` has none, as re-found kinks do.
    f = corner_walk(seed, n=2000)
    R = ReflectionMatrix2(-1.0, 1.0)
    cfg = SolveConfig(tol=1e-12 * float(np.max(np.abs(f.x))), max_iter=100_000, damping=0.5)
    rounds = spy_sweeps_per_round(monkeypatch)
    fixed = solve_fixed_point(R, f, cfg)
    assert fixed.converged
    assert rounds()[1:] == [1]
    assert len(fixed.m) == len(solve_grid(R, f, cfg).m) == points


@pytest.mark.parametrize("seed", range(4))
def test_max_iter_bounds_the_sweeps_of_all_rounds_together(seed, monkeypatch):
    # damping 0.5 at the critical (-1, 1): the first round takes some 30
    # sweeps, and each later one at least one. max_iter is the budget of the
    # whole solve: one short of the rounds' sum, or spent just as the first
    # round converges, the solve stops with converged False after exactly
    # max_iter sweeps. Each round once had max_iter sweeps of its own.
    f = corner_walk(seed, n=2000)
    R = ReflectionMatrix2(-1.0, 1.0)
    rounds = spy_sweeps_per_round(monkeypatch)
    full = solve_fixed_point(R, f, SolveConfig(damping=0.5))
    first = rounds()[0]
    assert full.converged and full.iterations > first
    for budget in (first - 1, first, full.iterations - 1):
        res = solve_fixed_point(R, f, SolveConfig(max_iter=budget, damping=0.5))
        assert (res.iterations, res.converged) == (budget, False)
    res = solve_fixed_point(R, f, SolveConfig(max_iter=full.iterations, damping=0.5))
    assert res.converged and res.iterations == full.iterations
    assert np.array_equal(res.m.x, full.m.x) and np.array_equal(res.g.x, full.g.x)


def test_a_budget_spent_as_a_round_converges_returns_the_swept_grid():
    # damping 0.5 at the critical (-1, 1): the first round converges on its
    # 36th sweep and finds 1,966 kinks. With 36 sweeps in the budget, none is
    # left for the enriched grid, so the solve ends on the grid its sweeps
    # ran on, where residual was measured; it returned the 3,967-point grid
    f = corner_walk(0, n=2000)
    R = ReflectionMatrix2(-1.0, 1.0)
    res = solve_fixed_point(R, f, SolveConfig(max_iter=36, damping=0.5))
    assert (res.iterations, res.converged) == (36, False)
    assert np.array_equal(res.g.t, f.t) and res.residual < 1e-9
    res = solve_fixed_point(R, f, SolveConfig(max_iter=37, damping=0.5))
    assert (res.iterations, res.converged, len(res.m)) == (37, True, 3967)


@pytest.mark.parametrize("a", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("seed", range(4))
def test_second_round_near_the_critical_radius_takes_one_sweep(a, seed, monkeypatch):
    # the corner walks of the extrapolated-sweeps test: the second round
    # starts from the march's m and converges in its first sweep
    f = corner_walk(seed)
    cfg = SolveConfig(tol=1e-12 * float(np.max(np.abs(f.x))))
    rounds = spy_sweeps_per_round(monkeypatch)
    assert solve_fixed_point(ReflectionMatrix2(a, -a), f, cfg).converged
    assert rounds()[1:] == [1]


def test_safeguard_undoes_a_jump_that_overshoots(monkeypatch):
    # The sweep right after the first jump is knocked off course, so it moves
    # m more than the sweep before the jump. The solver must then go back to
    # the state before the jump and sweep on plainly: at damping 1 a sweep
    # starts from h1 = f1 + a1 * m2, m2 the last sweep's second regulator, and
    # a spy on the regulator sees the jump and the return as the only two
    # first-half inputs that do not come from the last second half.
    a = 0.99
    f = corner_walk(0)
    sup = float(np.max(np.abs(f.x)))
    R = ReflectionMatrix2(a, -a)
    f1, n = f.x[:, 0], len(f)
    regulator = skorokhod_1d
    calls, breaks, seconds = [0], [], [np.zeros(n)]

    def spy(h):
        out = regulator(h)
        if len(h) != n:  # a later round, on the enriched grid
            return out
        calls[0] += 1
        if calls[0] % 2 == 0:
            seconds.append(out)
            return out
        if np.array_equal(h, f1 + a * seconds[-1]):
            return out
        breaks.append(calls[0])
        if len(breaks) == 1:  # the sweep after the first jump
            return out + sup
        # the sweep after the undo starts from the pre-jump state
        assert np.array_equal(h, f1 + a * seconds[-2])
        return out

    monkeypatch.setattr(solver, "skorokhod_1d", spy)
    res = solve_fixed_point(R, f, SolveConfig(tol=1e-12 * sup))
    assert len(breaks) == 2 and breaks[1] == breaks[0] + 2
    assert res.converged
    assert res.iterations > 1000  # no jump after the undo: plain sweeps
    assert verify(SolutionTriple(R, f, res.g, res.m), tol=1e-9 * sup).passed


# --- the support rule on arrays ----------------------------------------------


def scalar_lcp2(a1, a2, q1, q2, pushable):
    # the same enumeration on one row, in scalar Python: the reference for
    # the array rule. A candidate is admissible where each entry is >= the
    # floor, so no NaN is, and a NaN in q makes the floor NaN
    candidates = [(0, (0.0, 0.0), (q1, q2))]
    if pushable[0]:
        candidates.append((1, (-q1, 0.0), (0.0, q2 + a2 * -q1)))
    if pushable[1]:
        candidates.append((1, (0.0, -q2), (q1 + a1 * -q2, 0.0)))
    det = 1.0 - a1 * a2
    if pushable[0] and pushable[1] and abs(det) > CRITICAL_BAND:
        candidates.append((2, ((-q1 + a1 * q2) / det, (-q2 + a2 * q1) / det), (0.0, 0.0)))
    floor = math.nan if math.isnan(q1) or math.isnan(q2) else -FLOAT_DEDUP * max(abs(q1), abs(q2))
    best = None
    for cand in candidates:
        _, z, w = cand
        if not all(zj >= floor for zj in z) or any(p and not wj >= floor for p, wj in zip(pushable, w)):
            continue
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        return None
    _, z, w = best
    return (max(z[0], 0.0), max(z[1], 0.0)), w


#: every pair of signed zeros, subnormals, huge values, infinities, NaN and
#: small integers
SPECIAL_ROWS = np.array(list(itertools.product(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, 1.0, -1.0], repeat=2)))


def lcp_rows(seed):
    # small integers and signed zeros give ties between supports; an entry
    # 0.5-2 FLOAT_DEDUP times the other's size below zero sits on either side
    # of the slack; the special rows end the list
    rng = np.random.default_rng(seed)
    ties = rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], size=(300, 2))
    spread = rng.normal(size=(300, 2)) * 10.0 ** rng.uniform(-6, 6, size=(300, 1))
    near = rng.normal(size=(300, 2))
    j = rng.integers(2, size=300)
    rows = np.arange(300)
    near[rows, j] = -np.abs(near[rows, 1 - j]) * FLOAT_DEDUP * rng.choice([0.5, 1.0, 2.0], size=300)
    return np.vstack([ties, spread, near, SPECIAL_ROWS])


PATTERNS = [(False, False), (True, False), (False, True), (True, True)]
LCP_MATRICES = [(-0.7, 0.9), (-2.0, 1.0), (0.5, 0.5), (-1.0, 1.0), (2.0, 2.0), (-1.0, -1.0), (-1.0, -2.0)]


@pytest.mark.parametrize("pushable", PATTERNS)
@pytest.mark.parametrize("a1, a2", LCP_MATRICES)
def test_lcp2_batch_equals_the_rule_row_by_row(a1, a2, pushable):
    # (2, 2) is completely-S but not P, so supports {1} and {2} can tie;
    # (-1, -1) has a singular full support and (-1, -2) is not completely-S,
    # so some rows have no admissible support; an infinite row meets inf - inf
    q = lcp_rows(int(100 * a1 + 10 * a2) % 2**16)
    with np.errstate(invalid="ignore", over="ignore"):
        zw, ok = _lcp2(a1, a2, q[:, 0], q[:, 1], pushable)
        for i, (q1, q2) in enumerate(q.tolist()):
            ref = scalar_lcp2(a1, a2, q1, q2, pushable)
            one, one_ok = _lcp2(a1, a2, q[i:i + 1, 0], q[i:i + 1, 1], pushable)
            assert ok[i] == one_ok[0] == (ref is not None)
            assert zw[i].tobytes() == one[0].tobytes()
            if ref is not None:
                assert zw[i, 2:].tobytes() == np.array(ref[0]).tobytes()
                assert zw[i, :2].tobytes() == np.array(ref[1]).tobytes()
    assert not ok[-len(SPECIAL_ROWS):].all()  # the NaN rows
    if (a1, a2, pushable) == (-1.0, -2.0, (True, True)):
        assert not ok[:-len(SPECIAL_ROWS)].all()


def frozen_lcp2(a1, a2, q1, q2, pushable):
    # the support rule as first written, every candidate tested on every
    # row: the reference that pins `_lcp2`'s bits, returning (z, w, ok)
    zero = np.zeros_like(q1)
    candidates = [(0, (zero, zero), (q1, q2))]
    if pushable[0]:
        candidates.append((1, (-q1, zero), (zero, q2 + a2 * -q1)))
    if pushable[1]:
        candidates.append((1, (zero, -q2), (q1 + a1 * -q2, zero)))
    det = 1.0 - a1 * a2
    if pushable[0] and pushable[1] and abs(det) > CRITICAL_BAND:
        z = ((-q1 + a1 * q2) / det, (-q2 + a2 * q1) / det)
        candidates.append((2, z, (zero, zero)))
    floor = -FLOAT_DEDUP * np.maximum(np.abs(q1), np.abs(q2))
    ok = np.zeros(len(q1), dtype=bool)
    size, z1, z2, w1, w2 = 0, zero, zero, zero, zero
    for n, (c1, c2), (v1, v2) in candidates:  # by support size
        admissible = (c1 >= floor) & (c2 >= floor)
        for p, v in zip(pushable, (v1, v2)):
            if p:
                admissible &= v >= floor
        smaller = (n == size) & ((c1 < z1) | (c1 == z1) & (c2 < z2))
        take = admissible & (~ok | smaller)
        size = np.where(take, n, size)
        z1, z2, w1, w2 = (np.where(take, c, b) for c, b in
                          ((c1, z1), (c2, z2), (v1, w1), (v2, w2)))
        ok |= take
    z = np.column_stack([z1, z2])
    return np.where(z < 0.0, 0.0, z), np.column_stack([w1, w2]), ok


@pytest.mark.parametrize("pushable", PATTERNS)
@pytest.mark.parametrize("a1, a2", LCP_MATRICES + [
    (1.0, 1.0),  # det = 0
    (2.0, 0.5 * (1 + 2.0**-42)),  # det = -2^-42, inside CRITICAL_BAND
    (-1.0, -(1 - 2.0**-41)),  # det = 2^-41, inside CRITICAL_BAND
    (0.99, -0.99), (0.3, -0.4), (-2.0, -2.0),
])
def test_lcp2_is_the_frozen_rule_byte_for_byte(a1, a2, pushable):
    # besides lcp_rows, rows q = -R c whose full support c has one entry
    # within the slack below 0: where det < -1, as for (-2, -2), no smaller
    # support is admissible on some of them and the clip sets that entry to 0
    rng = np.random.default_rng(8)
    c = rng.normal(size=(2000, 2))
    j, rows = rng.integers(2, size=2000), np.arange(2000)
    c[rows, j] = -rng.uniform(0.0, 4.0, size=2000) * FLOAT_DEDUP * np.abs(c[rows, 1 - j])
    q = np.vstack([lcp_rows(7), -c @ np.array([[1.0, a1], [a2, 1.0]]).T])
    with np.errstate(invalid="ignore", over="ignore"):
        z, w, ok = frozen_lcp2(a1, a2, q[:, 0], q[:, 1], pushable)
        zw, got = _lcp2(a1, a2, q[:, 0], q[:, 1], pushable)
    assert zw.shape == (len(q), 4)
    assert zw[:, 2:].tobytes() == z.tobytes()
    assert zw[:, :2].tobytes() == w.tobytes()
    assert got.tobytes() == ok.tobytes()
    assert not ok.all() and not zw[~ok].any()  # the NaN rows: z = w = 0


# --- solve_grid's runs against the per-segment march --------------------------


def chained_march(R, f):
    # the reference for solve_grid: `_march` on one segment at a time
    eps = FLOAT_DEDUP * float(np.max(np.abs(f.x)))
    rates = _Rates(float(R.a1), float(R.a2), np.diff(f.x, axis=0) / np.diff(f.t)[:, None])
    ts = f.t.tolist()
    ends = ts[1:]
    rows = [(ts[0], max(float(f.x[0, 0]), 0.0), max(float(f.x[0, 1]), 0.0), 0.0, 0.0)]
    for k in range(len(ends)):
        _march(rates, eps, ends, rows, k, k + 1)
    return np.array(rows)


def assert_grid_solver_matches_march(R, f, monkeypatch=None):
    """solve_grid equals the chained march bit for bit; returns how many
    segments solve_grid's scalar march took one at a time."""
    marched = []
    if monkeypatch is not None:
        def counting(rates, eps, ends, rows, k, hi):
            nxt = _march(rates, eps, ends, rows, k, hi)
            marched.append(nxt - k)
            return nxt
        monkeypatch.setattr(solver, "_march", counting)
    res = solve_grid(R, f, SolveConfig())
    ref = chained_march(R, f)
    assert res.g.t.tobytes() == res.m.t.tobytes() == ref[:, 0].tobytes()
    assert res.g.x.tobytes() == ref[:, 1:3].tobytes()
    assert res.m.x.tobytes() == ref[:, 3:].tobytes()
    assert res.iterations == len(ref) - 1
    return sum(marched)


@pytest.mark.parametrize("seed", range(4))
def test_grid_runs_match_the_march_on_gaussian_walks(seed, monkeypatch):
    # long quiet stretches between events: most segments go as runs
    rng = np.random.default_rng(seed)
    n = 4000
    ts = np.linspace(0.0, 1.0, n + 1)
    vals = 0.25 + np.vstack([np.zeros((1, 2)), np.cumsum(rng.normal(size=(n, 2)), axis=0) / np.sqrt(n)])
    a1, a2 = rng.uniform(-0.45, 0.45, size=2)
    marched = assert_grid_solver_matches_march(ReflectionMatrix2(a1, a2), PLPath2(ts, vals, FLOAT), monkeypatch)
    assert marched < n / 4


@pytest.mark.parametrize("a1, a2", [(0.9, -0.9), (0.99, -0.99), (-1.0, 1.0)])
@pytest.mark.parametrize("seed", range(2))
def test_grid_runs_match_the_march_on_corner_walks(a1, a2, seed):
    assert_grid_solver_matches_march(ReflectionMatrix2(a1, a2), corner_walk(seed, n=2000))


def quiet_path(n, events):
    # both coordinates rise, so every segment is one quiet sub-step, except
    # that g1 falls to zero inside each segment in `events`
    ts = np.linspace(0.0, 1.0, n + 1)
    steps = np.full((n, 2), 0.01)
    steps[events, 0] = -3.0
    return PLPath2(ts, 1.0 + np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]), FLOAT)


G = RUN_GATE


# The ids are fixed strings: the names these cases had when RUN_GATE was 16
# (n, then the case's index), kept so that retuning the gate renames no test.
@pytest.mark.parametrize("n, events", [
    # one segment
    pytest.param(1, [], id="1-events0"),
    pytest.param(1, [0], id="1-events1"),
    # no event, ending at a window end
    pytest.param(8 * G, [], id="128-events2"),
    pytest.param(G, [], id="16-events3"),
    pytest.param(2 * G, [], id="32-events4"),
    # first and last segment
    pytest.param(8 * G, [0], id="128-events5"),
    pytest.param(8 * G, [8 * G - 1], id="128-events6"),
    # at the gate
    pytest.param(8 * G, [G - 1], id="128-events7"),
    pytest.param(8 * G, [G], id="128-events8"),
    pytest.param(8 * G, [G + 1], id="128-events9"),
    # window ends
    pytest.param(8 * G, [2 * G - 1], id="128-events10"),
    pytest.param(8 * G, [2 * G], id="128-events11"),
    pytest.param(8 * G, [4 * G - 1], id="128-events12"),
    pytest.param(8 * G, [4 * G], id="128-events13"),
    # a new streak
    pytest.param(8 * G, [G, 2 * G + 1, 3 * G + 2], id="128-events14"),
])
def test_grid_runs_match_the_march_at_gate_and_window_boundaries(n, events, monkeypatch):
    R = ReflectionMatrix2(0.3, -0.4)
    marched = assert_grid_solver_matches_march(R, quiet_path(n, events), monkeypatch)
    if not events:
        assert marched == min(n, G)  # the streak, then runs to the end


def test_grid_runs_match_the_march_where_the_clip_applies(monkeypatch):
    # g1 = 0 is active, and its rate -2^-43 lies within the support rule's
    # slack, so nothing pushes and every segment ends in the clip at 0
    n = 8 * G
    ts = np.linspace(0.0, 1.0, n + 1)
    f = PLPath2(ts, np.column_stack([-(2.0**-43) * ts, 1.0 + ts]), FLOAT)
    marched = assert_grid_solver_matches_march(ReflectionMatrix2(0.3, -0.4), f, monkeypatch)
    assert marched == n


def test_run_stops_at_an_inadmissible_segment():
    # R = (-1, -2) is not completely-S: with both coordinates at zero the
    # slope (-1, 2) keeps them there, and the slope (-1, -1) has no admissible
    # support, so a run ends before it and `_march` raises there
    slopes = np.tile([-1.0, 2.0], (4 * G, 1))
    slopes[G + 3] = (-1.0, -1.0)
    rates = _Rates(-1.0, -2.0, slopes)
    grid = np.arange(4 * G + 1) / 64
    active = (True, True)
    run = _run(rates[active], grid, np.diff(grid), 2.0**-40, active, (0.0,) * 4, 0, 4 * G)
    assert len(run) == G + 3
    assert np.all(run[:, 1:3] == 0.0)
    with pytest.raises(StepInfeasibleError) as info:
        _march(rates, 2.0**-40, grid[1:].tolist(), [(grid[G + 3], 0.0, 0.0, 0.0, 0.0)], G + 3, G + 4)
    assert info.value.step_index == G + 3


def test_run_stops_where_a_slack_coordinate_reaches_zero_by_rounding():
    # g1 / -gr1 rounds one ulp below dt while g1 + dt * gr1 rounds to >= 0:
    # only the reach test sees the event, and `_march` takes two sub-steps
    g1, s1 = 0.5082638177642645, -0.9452916619330787
    dt = np.nextafter(g1 / -s1, np.inf)
    assert g1 + dt * s1 >= 0
    rates = _Rates(0.3, -0.4, np.array([[s1, 1.0]]))
    grid = np.array([0.0, dt])
    active = (False, False)
    assert len(_run(rates[active], grid, np.diff(grid), 2.0**-40, active, (g1, 1.0, 0.0, 0.0), 0, 1)) == 0
    rows = [(0.0, g1, 1.0, 0.0, 0.0)]
    assert _march(rates, 2.0**-40, [dt], rows, 0, 1) == 1
    assert len(rows) == 1 + 2


def quiet_march(rates, grid, eps, state, lo, hi):
    # the reference for `_run`: `_march` one segment at a time from `state`
    # at grid[lo], while a segment starts under the window's active set and
    # `_march` takes it in one sub-step, with admissible rates and no clip
    ends, dt = grid[1:].tolist(), np.diff(grid).tolist()
    active = (abs(state[0]) <= eps, abs(state[1]) <= eps)
    zw = rates[active][0]
    rows = [(grid[lo].item(), *state)]
    for k in range(lo, hi):
        _, g1, g2, _, _ = rows[-1]
        if (abs(g1) <= eps, abs(g2) <= eps) != active:
            break
        try:
            _march(rates, eps, ends, rows, k, k + 1)
        except StepInfeasibleError:
            break
        gr1, gr2 = zw[k, :2].tolist()
        if len(rows) != k - lo + 2 or rows[-1][1:3] != (g1 + dt[k] * gr1, g2 + dt[k] * gr2):
            del rows[k - lo + 1:]
            break
    return np.array(rows[1:]).reshape(-1, 5)


def eighths(special=None):
    # 24 segments of length 1/8; segment 10 is [0, special] if given
    if special is None:
        return np.arange(25) * 0.125
    return np.concatenate([np.arange(-10, 1) * 0.125, special + np.arange(14) * 0.125])


SUBNORMAL = -5e-324  # g / -w overflows: a reach far beyond the segment
REACH_BY_ROUNDING = (0.5082638177642645, -0.9452916619330787)  # see the test above
CLIP_WITHOUT_REACH = tuple(map(float.fromhex, ("0x1.6f8f1c5f2bc20p+0", "-0x1.61ab7f167bc6bp+0",
                                               "0x1.0a0db10f0aebbp+0")))
P, Q = (0.3, -0.4), (-1.0, -2.0)  # Q is not completely-S


def window_cases():
    # (R, state g, slope of every segment, {segment: slope}, grid, lo, hi,
    # the run's length): slack coordinates are > eps, pushed ones at 0
    g, w = REACH_BY_ROUNDING
    reach_dt = np.nextafter(g / -w, np.inf)
    cg, cw, cdt = CLIP_WITHOUT_REACH
    cases = {
        "slack-slack": (P, (1.0, 2.0), (0.5, 0.25), {}, None, 0, 24, 24),
        "slack-slack-reach": (P, (1.0, 2.0), (0.5, 0.25), {10: (-1000.0, 0.25)}, None, 0, 24, 10),
        # g1 lands on 0 at the end of segment 10 with no reach: segment 11
        # starts under another active set
        "slack-slack-lands-on-zero": (P, (1.0, 2.0), (0.0, 0.25), {10: (-8.0, 0.25)}, None, 0, 24, 11),
        # g1 lands on eps = 2^-40, which counts as active
        "slack-slack-lands-on-eps": (P, (2.0**-39, 2.0), (0.0, 0.25), {10: (-(2.0**-37), 0.25)},
                                     None, 0, 24, 11),
        "slack-slack-reach-by-rounding": (P, (g, 2.0), (0.0, 0.25), {10: (w, 0.25)}, reach_dt, 0, 24, 10),
        "slack-slack-clip-without-reach": (P, (cg, 2.0), (0.0, 0.25), {10: (cw, 0.25)}, cdt, 0, 24, 10),
        "pushed-slack": (P, (0.0, 2.0), (-1.0, 0.5), {}, None, 0, 24, 24),
        "pushed-slack-leaves-zero": (P, (0.0, 2.0), (-1.0, 0.5), {10: (1.0, 0.5)}, None, 0, 24, 11),
        "pushed-slack-rises-to-eps": (P, (0.0, 2.0), (-1.0, 0.5), {10: (2.0**-37, 0.5)}, None, 0, 24, 24),
        "pushed-slack-reach": (P, (0.0, 2.0), (-1.0, 0.5), {10: (-1.0, -1000.0)}, None, 0, 24, 10),
        # a rate within the support rule's slack: nothing pushes, and g1 clips
        "pushed-slack-clip": (P, (0.0, 2.0), (-1.0, 0.5), {10: (-(2.0**-43), 0.5)}, None, 0, 24, 10),
        "slack-pushed": (P, (2.0, 0.0), (0.5, -1.0), {}, None, 0, 24, 24),
        "slack-pushed-leaves-zero": (P, (2.0, 0.0), (0.5, -1.0), {10: (0.5, 1.0)}, None, 0, 24, 11),
        "slack-pushed-reach": (P, (2.0, 0.0), (0.5, -1.0), {10: (-1000.0, -1.0)}, None, 0, 24, 10),
        "pushed-pushed": (P, (0.0, 0.0), (-1.0, -1.0), {}, None, 0, 24, 24),
        "pushed-pushed-leave-zero": (P, (0.0, 0.0), (-1.0, -1.0), {10: (1.0, 1.0)}, None, 0, 24, 11),
        # the slope (-1, -1) under Q has no admissible support at (0, 0)
        "pushed-pushed-inadmissible": (Q, (0.0, 0.0), (-1.0, 2.0), {10: (-1.0, -1.0)}, None, 0, 24, 10),
        "inadmissible-first-row": (Q, (0.0, 0.0), (-1.0, 2.0), {10: (-1.0, -1.0)}, None, 10, 24, 0),
        "window-inside-the-grid": (P, (1.0, 2.0), (0.5, 0.25), {20: (-1000.0, 0.25)}, None, 3, 18, 15),
    }
    for s in (0.0, -0.0, SUBNORMAL):
        cases[f"slack-slope-{s!r}"] = (P, (1.0, 2.0), (s, 0.25), {}, None, 0, 24, 24)
        cases[f"pushed-slack-slope-{s!r}"] = (P, (0.0, 2.0), (0.0, s), {}, None, 0, 24, 24)
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("R, g, slope, at, special, lo, hi, length", window_cases())
def test_run_is_the_march_segment_by_segment(R, g, slope, at, special, lo, hi, length):
    slopes = np.tile(slope, (24, 1))
    for k, s in at.items():
        slopes[k] = s
    rates, grid, eps = _Rates(*R, slopes), eighths(special), 2.0**-40
    state = (*g, 0.0, 0.0)
    active = (abs(g[0]) <= eps, abs(g[1]) <= eps)
    run = _run(rates[active], grid, np.diff(grid), eps, active, state, lo, hi)
    ref = quiet_march(rates, grid, eps, state, lo, hi)
    assert run.shape == ref.shape == (length, 5)
    assert run.tobytes() == ref.tobytes()


#: quiet stretch lengths at and next to the ends of the march's streak (G)
#: and of the first two run windows (G + G, G + 3G)
near_windows = st.sampled_from([G, 2 * G, 4 * G]).flatmap(
    lambda n: st.integers(min_value=n - 2, max_value=n + 2))
slopes = st.floats(min_value=0.25, max_value=4.0)


def completely_s_matrices():
    rotational = st.floats(min_value=0.9, max_value=0.99).flatmap(
        lambda r: st.sampled_from([(r, -r), (-r, r)]))
    entries = st.floats(min_value=-3.0, max_value=3.0)
    general = st.tuples(entries, entries).filter(lambda a: is_completely_s(ReflectionMatrix2(*a)))
    return st.one_of(rotational, st.just((-1.0, 1.0)), general)


@st.composite
def reflected_drivers(draw):
    # One coordinate is reflected at 0 and the other rises far above 0, so the
    # first's g is its f plus its own regulator. Its quiet stretches (rising
    # above 0, or pushed at 0) have lengths near the window ends, and each
    # ends at a stop that `_run` checks: g reaching zero inside a segment,
    # g leaving zero (a change of active set), or slopes within the support
    # rule's slack, where every segment ends in the clip at 0. Unit time steps.
    a1, a2 = draw(completely_s_matrices())
    at_zero = draw(st.booleans())
    start = 0.0 if at_zero else 1.0
    steps = []  # None: a fall through zero, sized once g's largest value is known
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(near_windows)
        if not at_zero:
            steps += [draw(slopes)] * n + [None]
            at_zero = True
            continue
        steps += [-draw(slopes)] * n
        if draw(st.booleans()):
            steps.append(draw(slopes))
            at_zero = False
        else:
            tiny = 2.0 ** -draw(st.integers(min_value=41, max_value=52))
            steps += [-tiny] * draw(st.integers(min_value=1, max_value=G + 2))
    top = start + sum(d for d in steps if d is not None and d > 0)  # bounds g
    fall = -draw(st.floats(min_value=1.5, max_value=4.0)) * top
    steps = [fall if d is None else d for d in steps]
    pushed = -sum(d for d in steps if d < 0)  # bounds the regulator
    far = 1.0 + 2.0 * max(1.0, abs(a1), abs(a2)) * pushed
    x = np.column_stack([np.cumsum([start] + steps), far + np.arange(len(steps) + 1.0)])
    if draw(st.booleans()):
        x = x[:, ::-1]
    return ReflectionMatrix2(a1, a2), PLPath2(np.arange(len(steps) + 1.0), x, FLOAT)


@settings(max_examples=60, deadline=None)
@given(reflected_drivers())
def test_grid_runs_match_the_march_on_drawn_stretches(case):
    assert_grid_solver_matches_march(*case)


@settings(max_examples=20, deadline=None)
@given(near_windows, slopes, slopes, st.integers(min_value=0, max_value=3))
def test_grid_runs_stop_at_inadmissible_rates_where_the_march_raises(n, s, r, after):
    # R = (-1, -2) is not completely-S, so solve_grid refuses it unless the
    # check is lifted: both coordinates stay at 0 under the slope (-s, 2s),
    # and the slope (-r, -r) at segment n has no admissible support
    x = np.cumsum([(0.0, 0.0)] + [(-s, 2 * s)] * n + [(-r, -r)] + [(1.0, 1.0)] * after, axis=0)
    f = PLPath2(np.arange(len(x), dtype=float), x, FLOAT)
    R = ReflectionMatrix2(-1.0, -2.0)
    with pytest.raises(StepInfeasibleError) as ref:
        chained_march(R, f)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(StepInfeasibleError) as got:
        mp.setattr(solver, "is_completely_s", lambda R: True)
        solve_grid(R, f, SolveConfig())
    assert str(got.value) == str(ref.value) == "no admissible rate support"
    assert got.value.step_index == ref.value.step_index == n


# --- the batched kink march against the per-row march -------------------------


def march_row_by_row(rates, eps, g, m, ta, tb, k):
    # the reference for `_march_rows`: `_march` on each row in turn, its
    # interior rows' times and (m1, m2); an error names the row's grid
    # segment k[i]
    kinks, ends = [], tb.tolist()
    for i, (ki, a, (g1, g2), (m1, m2)) in enumerate(zip(k.tolist(), ta.tolist(), g.tolist(), m.tolist())):
        rows = [(a, g1, g2, m1, m2)]
        try:
            _march(rates, eps, ends, rows, i, i + 1)
        except StepInfeasibleError as e:
            raise StepInfeasibleError(str(e), ki) from None
        kinks += [(row[0], row[3], row[4]) for row in rows[1:-1]]
    kinks = np.array(kinks, dtype=float).reshape(-1, 3)
    return kinks[:, 0].copy(), kinks[:, 1:].copy()


def assert_same_kinks(got, want):
    # the times and the (n, 2) m at them, bit for bit
    assert [a.shape for a in got] == [a.shape for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def kink_times_row_by_row(grid, f, m, a1, a2, eps):
    # the reference for `_kink_times`: its segments, marched one by one; f and
    # m come as the sweeps' (2, n) rows
    f, m = f.T, m.T
    g = f + np.column_stack([m[:, 0] + a1 * m[:, 1], a2 * m[:, 0] + m[:, 1]])
    k = np.nonzero(np.any((g[:-1] > eps) & (np.diff(m, axis=0) > 0), axis=1))[0]
    rates = _Rates(a1, a2, (f[k + 1] - f[k]) / (grid[k + 1] - grid[k])[:, None])
    return march_row_by_row(rates, eps, np.maximum(g[k], 0.0), m[k], grid[k], grid[k + 1], k)


def gaussian_walk(seed, n=2000):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n + 1)
    vals = 0.25 + np.vstack([np.zeros((1, 2)), np.cumsum(rng.normal(size=(n, 2)), axis=0) / np.sqrt(n)])
    a1, a2 = rng.uniform(-0.45, 0.45, size=2)
    return ReflectionMatrix2(a1, a2), PLPath2(ts, vals, FLOAT)


def kink_cases():
    for a1, a2, damping in [(0.9, -0.9, 1.0), (0.99, -0.99, 1.0), (-1.0, 1.0, 0.5)]:
        for seed in range(2):
            yield pytest.param(ReflectionMatrix2(a1, a2), corner_walk(seed, n=2000), damping,
                               id=f"corner-{a1}-{a2}-damping{damping}-seed{seed}")
    for seed in range(2):
        yield pytest.param(*gaussian_walk(seed), 1.0, id=f"gaussian-seed{seed}")


@pytest.mark.parametrize("R, f, damping", kink_cases())
def test_batched_kink_march_equals_the_march_row_by_row(R, f, damping, monkeypatch):
    # every enrichment round's kink times and m at them, bit for bit and in
    # the same order
    rounds = []

    def checked(*args):
        kinks = _kink_times(*args)
        assert_same_kinks(kinks, kink_times_row_by_row(*args))
        rounds.append(len(kinks[0]))
        return kinks

    monkeypatch.setattr(solver, "_kink_times", checked)
    cfg = SolveConfig(tol=1e-12 * float(np.max(np.abs(f.x))), max_iter=100_000, damping=damping)
    assert solve_fixed_point(R, f, cfg).converged
    assert rounds[0] > 0


def test_batched_kink_march_takes_several_sub_steps_per_row():
    # rows that end with one, two and three sub-steps, in a mixed order, on
    # rows of the table that are not their grid segments
    eps = 2.0**-40
    slopes = np.array([[-4.0, 1.0], [1.0, 1.0], [-4.0, -4.0], [-3.0, -5.0], [2.0, -8.0]])
    g = np.array([[1.0, 2.0], [0.0, 0.5], [1.0, 2.0], [0.25, 0.0], [3.0, 1.0]])
    m = np.array([[0.0, 0.0], [0.5, 0.125], [0.1, 0.3], [2.0, 0.0], [0.0, 1.0 / 3.0]])
    ta = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    tb, k = ta + 1.0, np.array([3, 8, 9, 20, 21])
    for a1, a2 in [(0.3, -0.4), (0.9, -0.9), (-0.5, -0.5)]:
        rates = _Rates(a1, a2, slopes)
        kinks = _march_rows(rates, eps, g, m, ta, tb, k)
        assert_same_kinks(kinks, march_row_by_row(rates, eps, g, m, ta, tb, k))
        assert len(kinks[0]) >= 3
        assert {*map(tuple, kinks[1].tolist())} - {*map(tuple, m.tolist())}  # some row pushes
    empty = _march_rows(_Rates(0.3, -0.4, slopes[:0]), eps, g[:0], m[:0], ta[:0], tb[:0], k[:0])
    assert empty[0].shape == (0,) and empty[1].shape == (0, 2)


@pytest.mark.parametrize("g, slopes, failing", [
    # row 1 fails in its first sub-step, row 0 in its second: row 0 is named
    ([(0.5, 0.0), (0.0, 0.0), (1.0, 1.0)], [(-1.0, -1.0), (-1.0, -1.0), (1.0, 1.0)], 0),
    # only row 2 fails, after rows that march through
    ([(1.0, 1.0), (0.5, 0.0), (0.0, 0.0)], [(1.0, 1.0), (-1.0, 2.0), (-1.0, -1.0)], 2),
    # rows 0 and 2 fail in their second sub-step, row 1 in its first
    ([(0.5, 0.0), (0.0, 0.0), (0.5, 0.0)], [(-1.0, -1.0)] * 3, 0),
    # row 1 fails in its first sub-step; row 2 marches on through two
    # sub-steps, and row 0 fails in its third, two passes later: row 0 is named
    ([(0.25, 0.5), (0.0, 0.0), (0.25, 0.5)], [(-1.0, -1.0), (-1.0, -1.0), (-1.0, 3.0)], 0),
    # row 0 fails in its first sub-step, row 2 in its third: row 0 is named
    ([(0.0, 0.0), (1.0, 1.0), (0.25, 0.5)], [(-1.0, -1.0), (1.0, 1.0), (-1.0, -1.0)], 0),
])
def test_batched_kink_march_names_the_segment_the_row_loop_names(g, slopes, failing):
    # R = (-1, -2) is not completely-S: with both coordinates at zero the
    # slope (-1, -1) has no admissible support; g1 = 0.5 falling at rate 2
    # reaches zero within the segment, so its row fails one sub-step later
    g, slopes = np.array(g), np.array(slopes)
    ta = np.arange(3.0)
    tb, k = ta + 1.0, np.array([4, 7, 11])
    m = np.zeros_like(g)
    with pytest.raises(StepInfeasibleError) as row_loop:
        march_row_by_row(_Rates(-1.0, -2.0, slopes), 2.0**-40, g, m, ta, tb, k)
    with pytest.raises(StepInfeasibleError) as batched:
        _march_rows(_Rates(-1.0, -2.0, slopes), 2.0**-40, g, m, ta, tb, k)
    assert str(batched.value) == str(row_loop.value) == "no admissible rate support"
    assert batched.value.step_index == row_loop.value.step_index == k[failing]


@pytest.mark.parametrize("order, message, failing", [
    # row 2 fails in its first sub-step, row 1 reaches the cap: row 1 is named
    ([0, 1, 2], "event cascade did not terminate", 1),
    # row 0 fails in its first sub-step and is named; row 2 reaches the cap
    ([2, 0, 1], "no admissible rate support", 0),
])
def test_batched_kink_march_names_a_row_at_the_cap(order, message, failing):
    # with eps = 0, g1 = 5e-324 is slack and its reach 5e-324 / 2 rounds to
    # 0, so its row never moves t and reaches `_march`'s cap of 1000
    # sub-steps; g = 0 under the slope (-1, -1) has no admissible support
    g = np.array([(1.0, 1.0), (5e-324, 1.0), (0.0, 0.0)])[order]
    slopes = np.array([(1.0, 1.0), (-2.0, 1.0), (-1.0, -1.0)])[order]
    ta = np.arange(3.0)
    tb, k = ta + 1.0, np.array([4, 7, 11])
    m = np.zeros_like(g)
    with pytest.raises(StepInfeasibleError) as row_loop:
        march_row_by_row(_Rates(-1.0, -2.0, slopes), 0.0, g, m, ta, tb, k)
    with pytest.raises(StepInfeasibleError) as batched:
        _march_rows(_Rates(-1.0, -2.0, slopes), 0.0, g, m, ta, tb, k)
    assert str(batched.value) == str(row_loop.value) == message
    assert batched.value.step_index == row_loop.value.step_index == k[failing]


# --- the event step against its first form -----------------------------------


def frozen_march(rates, eps, ends, rows, k, hi):
    # the event step as first written, with abs(), min() and max() and one
    # table lookup per sub-step: the reference that pins `_march`'s bits
    t, g1, g2, m1, m2 = rows[-1]
    active = (abs(g1) <= eps, abs(g2) <= eps)
    quiet = 0
    while k < hi:
        tb, start, steps = ends[k], active, 0
        while t < tb:
            if steps == 1000:
                raise StepInfeasibleError("event cascade did not terminate", k)
            zw, bad = rates[active]
            if bad[k]:
                raise StepInfeasibleError("no admissible rate support", k)
            gr1, gr2, r1, r2 = zw[k].tolist()
            tau = tb - t
            if not active[0] and gr1 < 0:
                tau = min(tau, g1 / -gr1)
            if not active[1] and gr2 < 0:
                tau = min(tau, g2 / -gr2)
            t = tb if tau == tb - t else min(t + tau, tb)
            g1 = max(g1 + tau * gr1, 0.0) if gr1 < 0 else g1 + tau * gr1
            g2 = max(g2 + tau * gr2, 0.0) if gr2 < 0 else g2 + tau * gr2
            m1 += tau * r1
            m2 += tau * r2
            rows.append((t, g1, g2, m1, m2))
            steps += 1
            active = (abs(g1) <= eps, abs(g2) <= eps)
        k += 1
        quiet = quiet + 1 if steps == 1 and active == start else 0
        if quiet == RUN_GATE:
            break
    return k


def stretch_march(march, rates, eps, ends, state, k=0):
    # `march` from `state` at segment k to the end, called again at each
    # segment it returns, as solve_grid calls it but with no runs: the rows,
    # then the returned segments and the error raised, if any
    rows, stops = [state], []
    try:
        while k < len(ends):
            k = march(rates, eps, ends, rows, k, len(ends))
            stops.append(k)
    except StepInfeasibleError as e:
        stops.append((str(e), e.step_index))
    return np.array(rows).tobytes(), stops


def assert_march_is_frozen(rates, eps, ends, state, k=0):
    got = stretch_march(_march, rates, eps, ends, state, k)
    assert got == stretch_march(frozen_march, rates, eps, ends, state, k)
    return got[1]


def assert_march_is_frozen_on(R, f):
    eps = FLOAT_DEDUP * float(np.max(np.abs(f.x)))
    rates = _Rates(float(R.a1), float(R.a2), np.diff(f.x, axis=0) / np.diff(f.t)[:, None])
    state = (f.t[0].item(), max(float(f.x[0, 0]), 0.0), max(float(f.x[0, 1]), 0.0), 0.0, 0.0)
    assert_march_is_frozen(rates, eps, f.t[1:].tolist(), state)


@settings(max_examples=60, deadline=None)
@given(reflected_drivers())
def test_march_is_the_frozen_step_on_drawn_stretches(case):
    assert_march_is_frozen_on(*case)


CORNER_MATRICES = [(0.9, -0.9), (0.99, -0.99), (-1.0, 1.0)]


@pytest.mark.parametrize("a1, a2", CORNER_MATRICES)
@pytest.mark.parametrize("seed", range(2))
def test_march_is_the_frozen_step_on_corner_walks(a1, a2, seed):
    assert_march_is_frozen_on(ReflectionMatrix2(a1, a2), corner_walk(seed, n=2000))


@pytest.mark.parametrize("a1, a2", CORNER_MATRICES)
def test_march_is_the_frozen_step_on_kink_rounds_at_damping_half(a1, a2, monkeypatch):
    # every segment of every enrichment round, from the sweeps' states: each
    # row of `_march_rows` marched on its own by both steps, and the batch's
    # times and m are the step's rows
    batched, rows = _march_rows, []

    def checked(rates, eps, g, m, ta, tb, k):
        ends = tb.tolist()
        for i, (a, (g1, g2), (m1, m2)) in enumerate(zip(ta.tolist(), g.tolist(), m.tolist())):
            assert_march_is_frozen(rates, eps, ends[:i + 1], (a, g1, g2, m1, m2), i)
        rows.append(len(k))
        kinks = batched(rates, eps, g, m, ta, tb, k)
        assert_same_kinks(kinks, march_row_by_row(rates, eps, g, m, ta, tb, k))
        return kinks

    monkeypatch.setattr(solver, "_march_rows", checked)
    f = corner_walk(0, n=2000)
    cfg = SolveConfig(tol=1e-12 * float(np.max(np.abs(f.x))), max_iter=100_000, damping=0.5)
    assert solve_fixed_point(ReflectionMatrix2(a1, a2), f, cfg).converged
    assert rows[0] > 0


@pytest.mark.parametrize("t0, g, slope", [
    # -0.0 + 0.125 * -5e-324 is -0.0, which max(x, 0.0) keeps
    pytest.param(0.0, (-0.0, 2.0), (-5e-324, 0.25), id="signed-zero"),
    # the first segment's span 0.125 + 2^60 rounds to 2^60, and t + span to
    # 0: the sub-step ends at the segment's end only by the snap to it
    pytest.param(-2.0**60, (1.0, 2.0), (1.0, 0.25), id="span-misses-the-end"),
    # the reach g1 / inf is 0, and g1 + 0 * -inf is NaN from then on
    pytest.param(0.0, (1.0, 2.0), (-np.inf, 0.25), id="infinite-fall"),
    pytest.param(0.0, (1.0, 2.0), (np.nan, 0.25), id="nan-slope"),
])
def test_march_is_the_frozen_step_on_special_floats(t0, g, slope):
    rates = _Rates(*P, np.tile(slope, (8, 1)))
    ends = (np.arange(1, 9) / 8).tolist()
    assert_march_is_frozen(rates, 2.0**-40, ends, (t0, *g, 0.0, 0.0))


def test_march_raises_what_the_frozen_step_raises():
    # R = (-1, -2) is not completely-S: both coordinates stay at zero under
    # the slope (-1, 2), and the slope (-1, -1) at segment G + 3 has no
    # admissible support, after a stretch that ends at the gate
    slopes = np.tile([-1.0, 2.0], (4 * G, 1))
    slopes[G + 3] = (-1.0, -1.0)
    ends = (np.arange(1, 4 * G + 1) / 64).tolist()
    stops = assert_march_is_frozen(_Rates(-1.0, -2.0, slopes), 2.0**-40, ends, (0.0,) * 5)
    assert stops == [G, ("no admissible rate support", G + 3)]
    # the cap: with eps = 0, g1 = 5e-324 is slack, and its reach 5e-324 / 2
    # rounds to 0, so no sub-step moves t; segment 3 raises after 1000 of them
    slopes = np.tile([-2.0, 1.0], (6, 1))
    stops = assert_march_is_frozen(_Rates(0.3, -0.4, slopes), 0.0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                                   (3.0, 5e-324, 1.0, 0.0, 0.0), 3)
    assert stops == [("event cascade did not terminate", 3)]
