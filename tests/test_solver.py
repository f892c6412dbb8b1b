import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skorokhod2d import solver
from skorokhod2d.classify import CRITICAL_BAND, ReflectionMatrix2
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
    # the array rule
    candidates = [(0, (0.0, 0.0), (q1, q2))]
    if pushable[0]:
        candidates.append((1, (-q1, 0.0), (0.0, q2 + a2 * -q1)))
    if pushable[1]:
        candidates.append((1, (0.0, -q2), (q1 + a1 * -q2, 0.0)))
    det = 1.0 - a1 * a2
    if pushable[0] and pushable[1] and abs(det) > CRITICAL_BAND:
        candidates.append((2, ((-q1 + a1 * q2) / det, (-q2 + a2 * q1) / det), (0.0, 0.0)))
    slack = FLOAT_DEDUP * max(abs(q1), abs(q2))
    best = None
    for cand in candidates:
        _, z, w = cand
        if min(z) < -slack or any(p and wj < -slack for p, wj in zip(pushable, w)):
            continue
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        return None
    _, z, w = best
    return (max(z[0], 0.0), max(z[1], 0.0)), w


def lcp_rows(seed):
    # small integers and signed zeros give ties between supports; an entry
    # 0.5-2 FLOAT_DEDUP times the other's size below zero sits on either side
    # of the slack
    rng = np.random.default_rng(seed)
    ties = rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], size=(300, 2))
    spread = rng.normal(size=(300, 2)) * 10.0 ** rng.uniform(-6, 6, size=(300, 1))
    near = rng.normal(size=(300, 2))
    j = rng.integers(2, size=300)
    rows = np.arange(300)
    near[rows, j] = -np.abs(near[rows, 1 - j]) * FLOAT_DEDUP * rng.choice([0.5, 1.0, 2.0], size=300)
    return np.vstack([ties, spread, near])


PATTERNS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("pushable", PATTERNS)
@pytest.mark.parametrize("a1, a2", [(-0.7, 0.9), (-2.0, 1.0), (0.5, 0.5), (-1.0, 1.0),
                                     (2.0, 2.0), (-1.0, -1.0), (-1.0, -2.0)])
def test_lcp2_batch_equals_the_rule_row_by_row(a1, a2, pushable):
    # (2, 2) is completely-S but not P, so supports {1} and {2} can tie;
    # (-1, -1) has a singular full support and (-1, -2) is not completely-S,
    # so some rows have no admissible support
    q = lcp_rows(int(100 * a1 + 10 * a2) % 2**16)
    z, w, ok = _lcp2(a1, a2, q[:, 0], q[:, 1], pushable)
    for i, (q1, q2) in enumerate(q.tolist()):
        ref = scalar_lcp2(a1, a2, q1, q2, pushable)
        one = _lcp2(a1, a2, q[i:i + 1, 0], q[i:i + 1, 1], pushable)
        assert ok[i] == one[2][0] == (ref is not None)
        if ref is not None:
            assert z[i].tobytes() == one[0][0].tobytes() == np.array(ref[0]).tobytes()
            assert w[i].tobytes() == one[1][0].tobytes() == np.array(ref[1]).tobytes()
    if (a1, a2, pushable) == (-1.0, -2.0, (True, True)):
        assert not ok.all()


# --- solve_grid's runs against the per-segment march --------------------------


def chained_march(R, f):
    # the reference for solve_grid: `_march` on every segment in turn
    eps = FLOAT_DEDUP * float(np.max(np.abs(f.x)))
    rates = _Rates(float(R.a1), float(R.a2), np.diff(f.x, axis=0) / np.diff(f.t)[:, None])
    ts = f.t.tolist()
    g1, g2 = max(float(f.x[0, 0]), 0.0), max(float(f.x[0, 1]), 0.0)
    m1 = m2 = 0.0
    rows = [(ts[0], g1, g2, m1, m2)]
    for k in range(len(ts) - 1):
        for t, g1, g2, dm1, dm2 in _march(rates, eps, g1, g2, ts[k], ts[k + 1], k, k):
            m1 += dm1
            m2 += dm2
            rows.append((t, g1, g2, m1, m2))
    return np.array(rows)


def assert_grid_solver_matches_march(R, f, monkeypatch=None):
    """solve_grid equals the chained march bit for bit; returns how many
    segments solve_grid marched one by one."""
    marched = []
    if monkeypatch is not None:
        def counting(*args):
            marched.append(args[-1])
            return _march(*args)
        monkeypatch.setattr(solver, "_march", counting)
    res = solve_grid(R, f, SolveConfig())
    ref = chained_march(R, f)
    assert res.g.t.tobytes() == res.m.t.tobytes() == ref[:, 0].tobytes()
    assert res.g.x.tobytes() == ref[:, 1:3].tobytes()
    assert res.m.x.tobytes() == ref[:, 3:].tobytes()
    assert res.iterations == len(ref) - 1
    return len(marched)


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


@pytest.mark.parametrize("n, events", [
    (1, []), (1, [0]),                       # one segment
    (8 * G, []), (G, []), (2 * G, []),       # no event, ending at a window end
    (8 * G, [0]), (8 * G, [8 * G - 1]),      # first and last segment
    (8 * G, [G - 1]), (8 * G, [G]), (8 * G, [G + 1]),          # at the gate
    (8 * G, [2 * G - 1]), (8 * G, [2 * G]),                    # window ends
    (8 * G, [4 * G - 1]), (8 * G, [4 * G]),
    (8 * G, [G, 2 * G + 1, 3 * G + 2]),                         # a new streak
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
    run = _run(rates[active], grid, 2.0**-40, active, (0.0, 0.0), (0.0, 0.0), 0, 4 * G)
    assert len(run) == G + 3
    assert np.all(run[:, 1:3] == 0.0)
    with pytest.raises(StepInfeasibleError) as info:
        _march(rates, 2.0**-40, 0.0, 0.0, grid[G + 3], grid[G + 4], G + 3, G + 3)
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
    assert len(_run(rates[active], grid, 2.0**-40, active, (g1, 1.0), (0.0, 0.0), 0, 1)) == 0
    assert len(_march(rates, 2.0**-40, g1, 1.0, 0.0, dt, 0, 0)) == 2


# --- the batched kink march against the per-row march -------------------------


def march_row_by_row(rates, eps, g, ta, tb, k):
    # the reference for `_march_rows`: `_march` on each row in turn
    kinks = []
    for i, (ki, a, b, (g1, g2)) in enumerate(zip(k.tolist(), ta.tolist(), tb.tolist(), g.tolist())):
        kinks += [step[0] for step in _march(rates, eps, g1, g2, a, b, i, ki)[:-1]]
    return np.array(kinks, dtype=float)


def kink_times_row_by_row(grid, f, m, a1, a2, eps):
    # the reference for `_kink_times`: its segments, marched one by one
    g = f + np.column_stack([m[:, 0] + a1 * m[:, 1], a2 * m[:, 0] + m[:, 1]])
    k = np.nonzero(np.any((g[:-1] > eps) & (np.diff(m, axis=0) > 0), axis=1))[0]
    rates = _Rates(a1, a2, (f[k + 1] - f[k]) / (grid[k + 1] - grid[k])[:, None])
    return march_row_by_row(rates, eps, np.maximum(g[k], 0.0), grid[k], grid[k + 1], k)


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
    # every enrichment round's kink times, bit for bit and in the same order
    rounds = []

    def checked(*args):
        kinks = _kink_times(*args)
        assert kinks.tobytes() == kink_times_row_by_row(*args).tobytes()
        rounds.append(len(kinks))
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
    ta = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    tb, k = ta + 1.0, np.array([3, 8, 9, 20, 21])
    for a1, a2 in [(0.3, -0.4), (0.9, -0.9), (-0.5, -0.5)]:
        rates = _Rates(a1, a2, slopes)
        kinks = _march_rows(rates, eps, g, ta, tb, k)
        assert kinks.tobytes() == march_row_by_row(rates, eps, g, ta, tb, k).tobytes()
        assert len(kinks) >= 3
    assert len(_march_rows(_Rates(0.3, -0.4, slopes[:0]), eps, g[:0], ta[:0], tb[:0], k[:0])) == 0


@pytest.mark.parametrize("g, slopes, failing", [
    # row 1 fails in its first sub-step, row 0 in its second: row 0 is named
    ([(0.5, 0.0), (0.0, 0.0), (1.0, 1.0)], [(-1.0, -1.0), (-1.0, -1.0), (1.0, 1.0)], 0),
    # only row 2 fails, after rows that march through
    ([(1.0, 1.0), (0.5, 0.0), (0.0, 0.0)], [(1.0, 1.0), (-1.0, 2.0), (-1.0, -1.0)], 2),
    # rows 0 and 2 fail in their second sub-step, row 1 in its first
    ([(0.5, 0.0), (0.0, 0.0), (0.5, 0.0)], [(-1.0, -1.0)] * 3, 0),
])
def test_batched_kink_march_names_the_segment_the_row_loop_names(g, slopes, failing):
    # R = (-1, -2) is not completely-S: with both coordinates at zero the
    # slope (-1, -1) has no admissible support; g1 = 0.5 falling at rate 2
    # reaches zero within the segment, so its row fails one sub-step later
    g, slopes = np.array(g), np.array(slopes)
    ta = np.arange(3.0)
    tb, k = ta + 1.0, np.array([4, 7, 11])
    with pytest.raises(StepInfeasibleError) as row_loop:
        march_row_by_row(_Rates(-1.0, -2.0, slopes), 2.0**-40, g, ta, tb, k)
    with pytest.raises(StepInfeasibleError) as batched:
        _march_rows(_Rates(-1.0, -2.0, slopes), 2.0**-40, g, ta, tb, k)
    assert str(batched.value) == str(row_loop.value) == "no admissible rate support"
    assert batched.value.step_index == row_loop.value.step_index == k[failing]
