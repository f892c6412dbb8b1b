"""Numerical solvers: reflection-map Picard iteration and LCP time stepping.

Both solvers work in float mode and share one event step, `_march`: it
marches one grid segment with a constant active set per sub-step, and a
sub-step ends at the exact time where a slack coordinate of g reaches zero.
Its rates come from one support rule for the small complementarity problem,
`_lcp2`, which runs as array code over all segments once per active pattern
(`_Rates`), so a sub-step reads its segment's row. The grid solver chains
the step over the segments. Where the active set has held for RUN_GATE
segments, it advances the next ones as a run: array code that gives the same
bits as the chain and hands the first segment with an event, a clip at 0 or
inadmissible rates back to `_march`. The fixed-point solver iterates the
one-dimensional regulator map coordinate-wise (Gauss-Seidel sweeps, optional
damping; an overflow raises `DivergenceError`) and then inserts the step's
event times as kinks into the grid, so the converged output is piecewise
linear through the true solution's breakpoints. The segments it examines do
not depend on one another, so one batched march, `_march_rows`, takes their
sub-steps together as array code, with the bits of `_march` row by row.
Near the fixed point the active sets freeze, the sweep is affine and its
error shrinks by one rate per sweep, about |a1*a2| under a rotational
matrix; once two successive rate estimates agree, the iteration jumps to the
limit of that geometric series (Aitken's extrapolation). A jump after which
the next sweep moves m more than the one before it is undone, and the round
sweeps plainly on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .classify import CRITICAL_BAND, ReflectionMatrix2, is_completely_s
from .errors import DivergenceError, StepInfeasibleError, UsageError
from .paths import FLOAT, FLOAT_DEDUP, PLPath2, _grid, _merge, with_times


@dataclass
class SolveConfig:
    tol: float = 1e-9
    max_iter: int = 10000
    grid: Optional[Sequence[float]] = None
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol > 0:
            raise UsageError("tol must be positive")
        if self.max_iter < 1:
            raise UsageError("max_iter must be >= 1")
        if not 0 < self.damping <= 1:
            raise UsageError("damping must be in (0, 1]")
        if self.grid is not None:
            try:
                g = _grid(self.grid, FLOAT)
            except UsageError:
                g = None
            if g is None or len(g) < 2:
                raise UsageError("grid must be strictly increasing with >= 2 points")
            self.grid = g


@dataclass
class SolveResult:
    g: PLPath2
    m: PLPath2
    iterations: int
    converged: bool
    residual: float


def skorokhod_1d(h: np.ndarray) -> np.ndarray:
    """One-dimensional regulator on a grid: m(t) = max_{s<=t} (-h(s))^+."""
    h = np.asarray(h, dtype=float)
    return np.maximum.accumulate(np.maximum(-h, 0.0))


def _grid_for(f: PLPath2, cfg: SolveConfig) -> np.ndarray:
    if cfg.grid is None:
        return f.t
    # keep f's breakpoints so the sampled f is the exact path
    grid = _merge(f.t, cfg.grid)
    if grid[0] != f.t[0] or grid[-1] != f.t[-1]:
        raise UsageError("grid reaches outside the driving path's time domain")
    return grid


def _check_driving(f: PLPath2) -> None:
    if f.mode != FLOAT:
        raise UsageError("solvers run in float mode only")
    if np.any(f.x[0] < 0):
        raise UsageError("driving function must have f(start) >= 0")


def solve_fixed_point(
    R: ReflectionMatrix2,
    f: PLPath2,
    cfg: SolveConfig,
    init: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> SolveResult:
    """Picard iteration of the coupled 1D regulators.

    Geometric convergence when sqrt(|a1*a2|) < 1; damping < 1 extends the
    practical reach near the critical case without any convergence claim.
    The iteration stops at a sweep that moves m by less than cfg.tol.

    Extrapolated sweeps: after each sweep with change d, the rate estimate
    r = <d, d_prev> / <d_prev, d_prev> is taken over both coordinates. When
    two successive estimates agree to 1e-3 relative and |r| < 1, m jumps to
    m + d * r / (1 - r), the limit of an error that shrinks by r per sweep.
    If the sweep after a jump moves m more than the sweep before it, the
    pre-jump state comes back and the round makes no more jumps. A jump is
    not a sweep: `iterations` and cfg.max_iter count sweeps, and the result
    is always the output of a sweep. Error modes that come in complex pairs
    (damping < 1 at the critical matrix) give no stable rate and no jump.

    After convergence the grid is enriched with kinks: on each segment where
    a positive coordinate of g starts with its regulator rising, the marching
    step from the converged state gives the times where g reaches zero, so
    complementarity holds to machine precision. Each round of enrichment
    iterates again from the converged m on the enriched grid.
    """
    _check_driving(f)
    a1, a2 = float(R.a1), float(R.a2)
    lam = cfg.damping
    grid = _grid_for(f, cfg)
    fx = with_times(f, grid).x.T.copy()  # contiguous rows for the sweeps

    if init is None:
        init = (np.zeros_like(grid),) * 2
    m1, m2 = (np.asarray(m, dtype=float) for m in init)
    if len(m1) != len(grid) or len(m2) != len(grid):
        raise UsageError("init arrays must match the grid length")
    m = np.array([m1, m2])  # rows m1, m2

    total_iters = 0
    converged = False
    diff = np.inf
    eps = FLOAT_DEDUP * float(np.max(np.abs(fx)))

    for round_index in range(1, 251):
        converged = False
        jumps = True
        rate = last = before = None
        try:
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(cfg.max_iter):
                    total_iters += 1
                    m_new = np.empty_like(m)
                    m_new[0] = (1 - lam) * m[0] + lam * skorokhod_1d(fx[0] + a1 * m[1])
                    m_new[1] = (1 - lam) * m[1] + lam * skorokhod_1d(fx[1] + a2 * m_new[0])
                    d = m_new - m
                    diff = float(np.max(np.abs(d)))
                    if diff < cfg.tol:
                        m, converged = m_new, True
                        break
                    if before is not None:  # the first sweep after a jump
                        (m_pre, diff_pre), before = before, None
                        if diff > diff_pre:  # the jump overshot: undo it
                            m, diff, jumps = m_pre, diff_pre, False
                            continue
                    m = m_new
                    if not jumps:
                        continue
                    # the sweep's rate <d, d_prev> / <d_prev, d_prev>, on d
                    # scaled by a power of two so that max|u| is in [1/2, 1)
                    scale = math.ldexp(1.0, -math.frexp(diff)[1])
                    u = d * scale
                    r = None
                    if last is not None:
                        u_prev, sq_prev, scale_prev = last
                        r = float(np.sum(u * u_prev)) / sq_prev * (scale_prev / scale)
                    if rate is not None and abs(r) < 1 and abs(r - rate) <= 1e-3 * abs(r):
                        # Aitken: the error shrinks by r per sweep, so jump
                        # to the limit of the geometric series of changes
                        before = (m, diff)
                        m = m + d * (r / (1 - r))
                        rate = last = None
                    else:
                        rate, last = r, (u, float(np.sum(u * u)), scale)
        except FloatingPointError:
            raise DivergenceError(round_index, total_iters) from None
        if not converged:
            if before is not None:  # out of sweeps right after a jump
                m, diff = before
            break
        kinks = _kink_times(grid, fx.T, m.T, a1, a2, eps)
        enriched = _merge(grid, kinks)
        if len(enriched) == len(grid):
            break
        fx = with_times(f, enriched).x.T.copy()
        m = with_times(PLPath2._of(grid, m.T), enriched).x.T.copy()
        grid = enriched

    (f1, f2), (m1, m2) = fx, m
    g1 = f1 + m1 + a1 * m2
    g2 = f2 + a2 * m1 + m2
    g_path = PLPath2(grid, np.column_stack([g1, g2]), FLOAT)
    m_path = PLPath2(grid, m.T, FLOAT)
    return SolveResult(g_path, m_path, total_iters, converged, float(diff))


def _kink_times(grid, f, m, a1, a2, eps) -> np.ndarray:
    """Interior event times of `_march`, ascending, on each segment where a
    positive coordinate of g starts with its regulator rising: one batched
    march (`_march_rows`) over all of those segments."""
    g = f + np.column_stack([m[:, 0] + a1 * m[:, 1], a2 * m[:, 0] + m[:, 1]])
    k = np.nonzero(np.any((g[:-1] > eps) & (np.diff(m, axis=0) > 0), axis=1))[0]
    rates = _Rates(a1, a2, (f[k + 1] - f[k]) / (grid[k + 1] - grid[k])[:, None])
    return _march_rows(rates, eps, np.maximum(g[k], 0.0), grid[k], grid[k + 1], k)


# --- discrete complementarity stepping ---------------------------------------


def _lcp2(a1: float, a2: float, q1: np.ndarray, q2: np.ndarray, pushable):
    """Support enumeration for the 2x2 LCP w = q + R z, z >= 0, z_j w_j = 0,
    one problem per entry of the arrays q1, q2.

    Only pushable coordinates may enter the support, and only they need
    w_j >= 0; the others keep z_j = 0 and an unconstrained w_j. Admissibility
    allows FLOAT_DEDUP * max(|q1|, |q2|) of slack. Ties break to the smallest
    support, then the lexicographically smallest z. Returns (z, w, ok), z and
    w of shape (n, 2) with z clipped at 0, and ok False where no support is
    admissible.
    """
    zero = np.zeros_like(q1)
    candidates = [(0, (zero, zero), (q1, q2))]
    if pushable[0]:
        candidates.append((1, (-q1, zero), (zero, q2 + a2 * -q1)))
    if pushable[1]:
        candidates.append((1, (zero, -q2), (q1 + a1 * -q2, zero)))
    det = 1.0 - a1 * a2
    # a1*a2 within the critical band of 1: the full support is singular
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


def lcp_step(
    R: ReflectionMatrix2, g_prev, delta_f
) -> tuple[tuple[float, float], tuple[float, float]]:
    """One complementarity step: find dm >= 0 with g_next = g_prev + df + R dm >= 0
    and dm complementary to g_next: `_lcp2` on one row, both coordinates
    pushable.

    Ties (possible for completely-S but non-P matrices) break to the smallest
    support, then the lexicographically smallest dm. Admissibility allows
    FLOAT_DEDUP * max(|g_prev + df|) of slack, and the returned g and dm are
    clipped at 0.
    """
    q1 = float(g_prev[0]) + float(delta_f[0])
    q2 = float(g_prev[1]) + float(delta_f[1])
    z, w, ok = _lcp2(float(R.a1), float(R.a2), np.array([q1]), np.array([q2]), (True, True))
    if not ok[0]:
        raise StepInfeasibleError("no admissible support set")
    g1, g2 = w[0].tolist()
    return (max(g1, 0.0), max(g2, 0.0)), tuple(z[0].tolist())


class _Rates(dict):
    """Active pattern -> (zw, ok): `_lcp2` on the driving slopes of every
    segment with the pattern's coordinates pushable, built on first use. Row
    k of zw is (gr1, gr2, r1, r2), the rates of g and of m on segment k, and
    ok[k] is False where no support is admissible."""

    def __init__(self, a1: float, a2: float, slopes: np.ndarray):
        super().__init__()
        self.a1, self.a2, self.slopes = a1, a2, slopes

    def __missing__(self, active):
        z, w, ok = _lcp2(self.a1, self.a2, self.slopes[:, 0], self.slopes[:, 1], active)
        table = self[active] = (np.hstack([w, z]), ok)
        return table


#: segments in a row that `_march` takes in one sub-step under one active set
#: before `solve_grid` tries a run; on drivers whose active set changes every
#: few segments, runs cost more than they save
RUN_GATE = 16


def solve_grid(R: ReflectionMatrix2, f: PLPath2, cfg: SolveConfig) -> SolveResult:
    """Time-marching solver for any completely-S matrix.

    Chains the event step `_march` over the grid's segments, so the output
    is the PL solution with its true breakpoints (up to float rounding).
    After RUN_GATE segments in a row of one sub-step under one active set,
    the next segments go as a run (`_run`): array code that takes the
    segments `_march` would take in one sub-step, with the same bits. The
    run's window starts at the streak's length and doubles while every
    segment in it is quiet, so the work stays linear; the first segment
    that is not quiet goes back to `_march`.
    """
    _check_driving(f)
    if not is_completely_s(ReflectionMatrix2(float(R.a1), float(R.a2))):
        raise UsageError("grid solver requires a completely-S matrix")
    grid = _grid_for(f, cfg)
    x = with_times(f, grid).x
    eps = FLOAT_DEDUP * float(np.max(np.abs(x)))
    rates = _Rates(float(R.a1), float(R.a2), np.diff(x, axis=0) / np.diff(grid)[:, None])
    ts = grid.tolist()  # Python floats index faster in the marching loop

    g1, g2 = max(float(x[0, 0]), 0.0), max(float(x[0, 1]), 0.0)
    m1 = m2 = 0.0
    rows = [(ts[0], g1, g2, m1, m2)]  # (t, g1, g2, m1, m2) per breakpoint
    blocks = []  # rows and run blocks, in order
    k = streak = 0
    while k < len(ts) - 1:
        active = (abs(g1) <= eps, abs(g2) <= eps)
        if streak >= RUN_GATE:
            hi = min(k + streak, len(ts) - 1)
            run = _run(rates[active], grid, eps, active, (g1, g2), (m1, m2), k, hi)
            if len(run):
                blocks += [_rows_array(rows), run]
                rows = []
                g1, g2, m1, m2 = run[-1, 1:].tolist()
                k += len(run)
            streak = streak + len(run) if k == hi else 0
            continue
        steps = _march(rates, eps, g1, g2, ts[k], ts[k + 1], k, k)
        for t, g1, g2, dm1, dm2 in steps:
            m1 += dm1
            m2 += dm2
            rows.append((t, g1, g2, m1, m2))
        held = len(steps) == 1 and (abs(g1) <= eps, abs(g2) <= eps) == active
        streak = streak + 1 if held else 0
        k += 1

    out = np.concatenate(blocks + [_rows_array(rows)])
    g_path = PLPath2(out[:, 0], out[:, 1:3], FLOAT)
    m_path = PLPath2(out[:, 0], out[:, 3:], FLOAT)
    return SolveResult(g_path, m_path, len(out) - 1, True, 0.0)


def _rows_array(rows: list) -> np.ndarray:
    """The (t, g1, g2, m1, m2) tuples as one (n, 5) array: `np.fromiter` over
    the flat floats, which reads them about twice as fast as `np.array`."""
    return np.fromiter(chain.from_iterable(rows), float, 5 * len(rows)).reshape(-1, 5)


def _run(table, grid, eps, active, g, m, lo, hi) -> np.ndarray:
    """Rows (t, g1, g2, m1, m2) at the ends of segments lo, lo + 1, ... < hi
    from the state g, m at grid[lo], up to the first segment that `_march`
    would not take in one quiet sub-step under `active`: its active set
    differs, its rates are inadmissible, a slack coordinate reaches zero in
    it, or the clip at 0 applies. g and m are the `np.cumsum` of the
    sub-steps' increments, which adds in order like `_march`'s chain: one
    product with the table's rows and one sum, in place in the array that
    holds the rows, so a call costs a few array operations at any length.
    """
    zw, ok = table
    n = hi - lo
    rows = np.empty((n + 1, 5))
    t, x = rows[:, 0], rows[:, 1:]
    t[:] = grid[lo:hi + 1]
    dt = t[1:] - t[:-1]
    x[0] = (*g, *m)
    np.multiply(zw[lo:hi], dt[:, None], out=x[1:])
    np.add.accumulate(x, out=x)  # np.cumsum, in place
    start, w = x[:-1, :2], zw[lo:hi, :2]
    active = np.array(active)
    with np.errstate(all="ignore"):  # the quotient counts only where g falls
        short = ~((start / -w >= dt[:, None]) | active)  # reaches 0 within dt
    short |= x[1:, :2] < 0  # the clip at 0
    stop = (w < 0) & short
    stop |= (np.abs(start) <= eps) != active
    stop = stop[:, 0] | stop[:, 1] | ~ok[lo:hi]
    q = int(np.argmax(stop))
    # a run cut short keeps a copy, so no block holds the window's unused rows
    return rows[1:q + 1].copy() if stop[q] else rows[1:]


def _march(rates: _Rates, eps, g1, g2, ta, tb, i, k) -> list:
    """The event step: march grid segment k = [ta, tb] from g = (g1, g2) >= 0,
    with its rates in row i of `rates`, as sub-steps (t, g1, g2, dm1, dm2)
    ending at t, dm the regulator's increment over the sub-step.

    Coordinates with |g_j| <= eps (eps = FLOAT_DEDUP * sup|f|, the
    `negligible` rule) are active and only they may push; the rates are the
    row of the table for that active set, and a sub-step ends at tb or at the
    first zero of a positive coordinate. `solve_grid` calls it on every
    segment outside its runs; `_march_rows` takes the same sub-steps on many
    segments at once, and tests pin the two to each other.
    """
    steps = []
    t = ta
    while t < tb:
        if len(steps) == 1000:
            raise StepInfeasibleError("event cascade did not terminate", k)
        active = (abs(g1) <= eps, abs(g2) <= eps)
        zw, ok = rates[active]
        if not ok[i]:
            raise StepInfeasibleError("no admissible rate support", k)
        gr1, gr2, r1, r2 = zw[i].tolist()
        tau = tb - t
        if not active[0] and gr1 < 0:
            tau = min(tau, g1 / -gr1)
        if not active[1] and gr2 < 0:
            tau = min(tau, g2 / -gr2)
        t = tb if tau == tb - t else min(t + tau, tb)
        g1 = max(g1 + tau * gr1, 0.0) if gr1 < 0 else g1 + tau * gr1
        g2 = max(g2 + tau * gr2, 0.0) if gr2 < 0 else g2 + tau * gr2
        steps.append((t, g1, g2, tau * r1, tau * r2))
    return steps


def _march_rows(rates: _Rates, eps, g, ta, tb, k) -> np.ndarray:
    """`_march` on independent segments at once: row i marches grid segment
    k[i] = [ta[i], tb[i]] from g[i] >= 0, with its rates in row i of
    `rates`. Returns the interior event times, by row and then in time.

    Each pass takes one sub-step on every unfinished row with the float
    operations of `_march` in the same order (`where(x < 0, 0.0, x)` is
    `max(x, 0.0)`, signed zeros included), so the times are the scalar
    step's bits. On the first inadmissible row, or at `_march`'s cap of 1000
    sub-steps, the batch stops and `_march` takes the rows in order, so a
    failure raises what a loop over the rows raises.
    """
    rows, t, end, x = np.arange(len(k)), ta, tb, g
    times, owners = [np.empty(0)], [rows[:0]]
    for step in range(1001):
        live = t < end
        rows, t, end, x = rows[live], t[live], end[live], x[live]
        if not len(rows):
            return np.concatenate(times)[np.argsort(np.concatenate(owners), kind="stable")]
        if step == 1000:
            break
        active = np.abs(x) <= eps
        pattern = active[:, 0] + 2 * active[:, 1]
        zw = np.empty((len(rows), 4))
        ok = np.empty(len(rows), dtype=bool)
        for p in np.flatnonzero(np.bincount(pattern, minlength=4)).tolist():
            sel = pattern == p
            table, good = rates[(bool(p & 1), bool(p & 2))]
            zw[sel], ok[sel] = table[rows[sel]], good[rows[sel]]
        if not ok.all():
            break
        gr = zw[:, :2]
        tau = end - t
        reach = np.full_like(x, np.inf)
        with np.errstate(over="ignore"):  # an overflow is a reach beyond the segment
            np.divide(x, -gr, out=reach, where=~active & (gr < 0))
        for j in (0, 1):
            tau = np.where(reach[:, j] < tau, reach[:, j], tau)
        t = np.where((tau == end - t) | (end < t + tau), end, t + tau)
        x = x + tau[:, None] * gr
        x = np.where((gr < 0) & (x < 0), 0.0, x)
        inner = t < end
        times.append(t[inner])
        owners.append(rows[inner])
    steps = [_march(rates, eps, *g[i].tolist(), ta[i], tb[i], i, int(k[i])) for i in range(len(k))]
    return np.array([s[0] for row in steps for s in row[:-1]], dtype=float)
