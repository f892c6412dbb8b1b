"""Numerical solvers: reflection-map Picard iteration and LCP time stepping.

Both solvers work in float mode and share one event step, `_march`: it
marches grid segments with a constant active set per sub-step (g_j <= eps
is active; g is never negative there), and a sub-step ends at the exact
time where a slack coordinate of g reaches zero. Its rates come from one
support rule for the small complementarity problem, `_lcp2`, which runs as
array code over all segments once per active pattern (`_Rates`) and tests
only the supports that the pattern allows, so a sub-step reads its
segment's row of the table, looked up when the active set changes. The
grid solver hands the grid to `_march`, which takes segment after segment
in one loop until RUN_GATE segments in a row have each been one sub-step
under one active set.
The next segments then go as a run, `_run`: array code that gives the same
bits as the march and hands the first segment with an event, a clip at 0 or
inadmissible rates back to `_march`. A run tests its whole window only for a
clip and a change of active set, since an event inside a segment lands that
segment's sum at 0 or below; the event itself is tested on one segment. The
fixed-point solver iterates the one-dimensional regulator map
coordinate-wise (Gauss-Seidel sweeps, optional damping; an overflow raises
`DivergenceError`) and then inserts the step's event times as kinks into the
grid, so the converged output is piecewise linear through the true
solution's breakpoints. Each kink takes the march's own m, so the next round
of sweeps starts at the fixed point on the enriched grid; a round after the
first whose first sweep moves m by less than tol ends the enrichment. The
segments it examines do not depend on one another, so one batched march,
`_march_rows`, takes their sub-steps together as array code, with the bits
of `_march` row by row; `_kink_times` picks them on the sweeps' (2, n) rows.
Near the fixed point the active sets freeze, the sweep is affine and its
error shrinks by one rate per sweep, about |a1*a2| under a rotational
matrix; once two successive rate estimates agree, the iteration jumps to the
limit of that geometric series (Aitken's extrapolation). A jump after which
the next sweep moves m more than the one before it is undone, and the round
sweeps plainly on. Both solvers start from one set-up (`_set_up`) and
return g and m on one time array (`_result`).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain, count
from typing import Optional, Sequence

import numpy as np

from .classify import CRITICAL_BAND, ReflectionMatrix2, is_completely_s
from .errors import DivergenceError, StepInfeasibleError, UsageError
from .paths import FLOAT, FLOAT_DEDUP, PLPath2, _grid, _joining, _merge, _regrid


@dataclass
class SolveConfig:
    tol: float = 1e-9
    max_iter: int = 10000
    grid: Optional[Sequence[float]] = None
    damping: float = 1.0

    def __post_init__(self):
        for name, kind, what in (("tol", numbers.Real, "a real number"),
                                 ("max_iter", numbers.Integral, "an integer"),
                                 ("damping", numbers.Real, "a real number")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise UsageError(f"{name} must be {what}, not {value!r}")
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


def _set_up(R: ReflectionMatrix2, f: PLPath2, cfg: SolveConfig):
    """Both solvers' start: R's entries as floats, the grid (f's breakpoints,
    merged with cfg.grid if given, so the sampled f is the exact path), f's
    points on it, and eps = FLOAT_DEDUP * sup|f|, below which g_j counts as 0.
    An increment of f past the double range is refused; none can be while
    sup|f| is at most half the range."""
    if f.mode != FLOAT:
        raise UsageError("solvers run in float mode only")
    if np.any(f.x[0] < 0):
        raise UsageError("driving function must have f(start) >= 0")
    grid, x = f.t, f.x
    sup = float(np.max(np.abs(x)))
    if sup > sys.float_info.max / 2:
        with np.errstate(over="ignore"):
            if not np.isfinite(np.diff(x, axis=0)).all():
                raise UsageError("an increment of the driving function is beyond the double range")
    if cfg.grid is not None:
        grid = _merge(f.t, cfg.grid)
        if grid[0] != f.t[0] or grid[-1] != f.t[-1]:
            raise UsageError("grid reaches outside the driving path's time domain")
        x = _regrid(f, grid).x
        sup = float(np.max(np.abs(x)))
    return float(R.a1), float(R.a2), grid, x, FLOAT_DEDUP * sup


def _result(t, g, m, iterations: int, converged: bool, residual: float) -> SolveResult:
    """g and m on one time array: m's `PLPath2` takes g's read-only grid as it is."""
    g = PLPath2(t, g, FLOAT)
    return SolveResult(g, PLPath2(g.t, m, FLOAT), iterations, converged, residual)


def solve_fixed_point(
    R: ReflectionMatrix2,
    f: PLPath2,
    cfg: SolveConfig,
    init: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> SolveResult:
    """Picard iteration of the coupled 1D regulators.

    Geometric convergence when sqrt(|a1*a2|) < 1; damping < 1 extends the
    practical reach near the critical case without any convergence claim.
    A round stops at a sweep that moves m by less than cfg.tol. cfg.max_iter
    bounds the sweeps of all rounds together: a solve that spends it, or
    that converges on its last sweep with kinks still to insert, returns
    converged False on the grid that its last sweep ran on, so `residual`
    always describes the grid returned.

    Extrapolated sweeps: after each sweep with change d, the rate estimate
    r = <d, d_prev> / <d_prev, d_prev> is taken over both coordinates. When
    two successive estimates agree to 1e-3 relative and |r| < 1, m jumps to
    m + d * r / (1 - r), the limit of an error that shrinks by r per sweep.
    If the sweep after a jump moves m more than the sweep before it, the
    pre-jump state comes back and the round makes no more jumps. A jump is
    not a sweep: `iterations` and cfg.max_iter count sweeps, and the result
    is never the state that a jump left. Error modes that come in complex pairs
    (damping < 1 at the critical matrix) give no stable rate and no jump.

    After convergence the grid is enriched with kinks: on each segment where
    a positive coordinate of g starts with its regulator rising, the marching
    step from the converged state gives the times where g reaches zero, so
    complementarity holds to machine precision. Each round of enrichment
    iterates again on the enriched grid, from the converged m at the old
    points and the march's own m at the kinks, so it re-converges in about
    one sweep. A round after the first whose first sweep moves m by less
    than cfg.tol ends the enrichment: a kink search from there would only
    find the kinks just inserted again, a hair later.
    """
    a1, a2, grid, fx, eps = _set_up(R, f, cfg)
    fx = fx.T.copy()  # contiguous rows for the sweeps
    lam = cfg.damping

    if init is None:
        init = (np.zeros_like(grid),) * 2
    m1, m2 = (np.asarray(m, dtype=float) for m in init)
    if len(m1) != len(grid) or len(m2) != len(grid):
        raise UsageError("init arrays must match the grid length")
    if not (np.isfinite(m1).all() and np.isfinite(m2).all()):
        raise UsageError("init arrays must be finite")
    m = np.array([m1, m2])  # rows m1, m2

    total_iters = 0
    diff = np.inf

    for round_index in count(1):
        converged = False
        jumps = True
        rate = last = before = None
        try:
            with np.errstate(over="raise", invalid="raise"):
                for sweeps in range(1, cfg.max_iter - total_iters + 1):
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
        if sweeps == 1 and round_index > 1:
            break  # the march's m at the last kinks is already the fixed point
        times, mk = _kink_times(grid, fx, m, a1, a2, eps)
        kinks = _joining(grid, times)
        if not len(kinks):
            break
        if total_iters == cfg.max_iter:  # no sweep left for an enriched grid
            converged = False
            break
        # the kept kinks are a subsequence of the ascending times, so each
        # takes the march's m at its own position; `_regrid` reads f
        # pointwise, so the grid's points keep their values
        at = np.searchsorted(grid, kinks)
        fx = np.insert(fx, at, _regrid(f, kinks).x.T, axis=1)
        m = np.insert(m, at, mk[np.searchsorted(times, kinks)].T, axis=1)
        grid = np.insert(grid, at, kinks)

    (f1, f2), (m1, m2) = fx, m
    g = np.column_stack([f1 + m1 + a1 * m2, f2 + a2 * m1 + m2])
    return _result(grid, g, m.T, total_iters, converged, float(diff))


def _kink_times(grid, f, m, a1, a2, eps) -> tuple[np.ndarray, np.ndarray]:
    """Interior event times of `_march`, ascending, and the march's (n, 2) m
    at each, on each segment where a positive coordinate of g starts with its
    regulator rising: one batched march (`_march_rows`) over all of those
    segments, each from the sweeps' g and m at its start. f and m are the
    sweeps' (2, n) rows, and g is built row by row on them. The next round
    starts from the march's m at the kinks it keeps. A slope of f past the
    double range on a segment to march is refused (`_slopes`)."""
    g = np.array([f[0] + (m[0] + a1 * m[1]), f[1] + (a2 * m[0] + m[1])])
    rising = (g[:, :-1] > eps) & (m[:, 1:] > m[:, :-1])
    k = np.flatnonzero(rising[0] | rising[1])
    rates = _Rates(a1, a2, _slopes((f[:, k + 1] - f[:, k]).T, grid[k + 1] - grid[k]))
    return _march_rows(rates, eps, np.maximum(g[:, k], 0.0).T, m[:, k].T, grid[k], grid[k + 1], k)


# --- discrete complementarity stepping ---------------------------------------


def _lcp2(a1: float, a2: float, q1: np.ndarray, q2: np.ndarray, pushable):
    """Support enumeration for the 2x2 LCP w = q + R z, z >= 0, z_j w_j = 0,
    one problem per entry of the arrays q1, q2.

    Only pushable coordinates may enter the support, and only they need
    w_j >= 0; the others keep z_j = 0 and an unconstrained w_j. Admissibility
    allows FLOAT_DEDUP * max(|q1|, |q2|) of slack. Ties break to the smallest
    support, then the lexicographically smallest z. Returns (zw, ok): row k
    of the (n, 4) array zw is (w1, w2, z1, z2) with z clipped at 0, and ok
    is False, with zw = 0, where no support is admissible.

    Each row takes the first admissible support in the order {}, {j},
    {1, 2}, as masks over the rows, and only the pattern's own candidates
    are evaluated: with nothing pushable w = q, and the full support is
    solved only on the rows where no smaller one is admissible. Two supports
    of one size are only {1} and {2} (both admissible under a matrix that is
    not P), so the tie rule runs only with both pushable.
    """
    zw = np.zeros((len(q1), 4))
    if not (pushable[0] or pushable[1]):
        zw[:, 0], zw[:, 1] = q1, q2
        ok = ~(np.isnan(q1) | np.isnan(q2))  # the slack is a number
    elif not (pushable[0] and pushable[1]):
        # one pushable coordinate j: {j} where {}, which needs q_j within the
        # slack, is not admissible; then z_j = -q_j > 0, so no clip applies
        j = 0 if pushable[0] else 1
        (qj, qi), a = ((q1, q2), a2) if j == 0 else ((q2, q1), a1)
        floor = -FLOAT_DEDUP * np.maximum(np.abs(q1), np.abs(q2))
        push, zj = ~(qj >= floor), -qj
        ok = ~push | (zj >= floor)
        zw[:, j] = np.where(push, 0.0, qj)
        zw[:, 1 - j] = np.where(push, qi + a * zj, qi)
        zw[:, 2 + j] = np.where(push, zj, 0.0)
    else:
        floor = -FLOAT_DEDUP * np.maximum(np.abs(q1), np.abs(q2))
        z1, z2 = -q1, -q2  # z of {1} and of {2}
        v2, v1 = q2 + a2 * z1, q1 + a1 * z2  # w2 of {1} and w1 of {2}
        none = (q1 >= floor) & (q2 >= floor)
        one = ~none & (z1 >= floor) & (v2 >= floor)
        two = (z2 >= floor) & (v1 >= floor)
        # {2} where neither {} nor {1} is admissible, or where it ties {1}
        # with the smaller z: (0, z2) < (z1, 0)
        two &= one & ((z1 > 0.0) | (z1 == 0.0) & (z2 < 0.0)) | ~(none | one)
        one &= ~two
        ok = none | one | two
        zw[:, 0] = np.where(none, q1, np.where(two, v1, 0.0))
        zw[:, 1] = np.where(none, q2, np.where(one, v2, 0.0))
        zw[:, 2] = np.where(one, z1, 0.0)
        zw[:, 3] = np.where(two, z2, 0.0)
        det = 1.0 - a1 * a2
        # a1*a2 within the critical band of 1: the full support is singular
        if abs(det) > CRITICAL_BAND and not ok.all():
            k = np.flatnonzero(~ok)
            c1, c2 = (-q1[k] + a1 * q2[k]) / det, (-q2[k] + a2 * q1[k]) / det
            take = (c1 >= floor[k]) & (c2 >= floor[k])
            k = k[take]
            zw[k, 2], zw[k, 3], ok[k] = c1[take], c2[take], True
        z = zw[:, 2:]
        np.copyto(z, 0.0, where=z < 0.0)
        return zw, ok
    if not ok.all():
        zw[~ok] = 0.0
    return zw, ok


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
    zw, ok = _lcp2(float(R.a1), float(R.a2), np.array([q1]), np.array([q2]), (True, True))
    if not ok[0]:
        raise StepInfeasibleError("no admissible support set")
    g1, g2, z1, z2 = zw[0].tolist()
    return (max(g1, 0.0), max(g2, 0.0)), (z1, z2)


def _slopes(dx: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The (n, 2) slopes of f from its (n, 2) increments dx over segments of
    lengths dt: the rates a march needs. A slope past the double range (a
    segment too short for its increment) is refused."""
    with np.errstate(over="ignore"):
        slopes = dx / dt[:, None]
    if not np.isfinite(slopes).all():
        raise UsageError("a slope of the driving function is beyond the double range")
    return slopes


class _Rates(dict):
    """Active pattern -> (zw, bad): `_lcp2`'s table on the driving slopes of
    every segment with the pattern's coordinates pushable, built on first
    use. Row k of zw is (gr1, gr2, r1, r2), the rates of g and of m on
    segment k, and bad[k] is True where no support is admissible."""

    def __init__(self, a1: float, a2: float, slopes: np.ndarray):
        super().__init__()
        self.a1, self.a2, self.slopes = a1, a2, slopes

    def __missing__(self, active):
        zw, ok = _lcp2(self.a1, self.a2, self.slopes[:, 0], self.slopes[:, 1], active)
        table = self[active] = (zw, ~ok)
        return table


#: segments in a row that `_march` takes in one sub-step under one active set
#: before `solve_grid` tries a run, and the length of the run's first window;
#: on drivers whose active set changes every few segments, runs cost more
#: than they save. Gates of 24 to 48 time alike on the benchmark decks, about
#: 2% faster than 16 on `near-critical`; 32 makes half the windows of 16.
RUN_GATE = 32


def solve_grid(R: ReflectionMatrix2, f: PLPath2, cfg: SolveConfig) -> SolveResult:
    """Time-marching solver for any completely-S matrix.

    Marches the grid's segments with the event step `_march`, so the output
    is the PL solution with its true breakpoints (up to float rounding).
    `_march` takes segments in its own loop until RUN_GATE segments in a row
    have each been one sub-step under one active set; the next segments then
    go as a run (`_run`): array code that takes the segments `_march` would
    take in one sub-step, with the same bits. The run's window starts at
    RUN_GATE and doubles while every segment in it is quiet, so the work
    stays linear; the first segment that is not quiet goes back to `_march`.
    A slope of f past the double range (a segment too short for its
    increment) is refused.
    """
    a1, a2, grid, x, eps = _set_up(R, f, cfg)
    if not is_completely_s(ReflectionMatrix2(a1, a2)):
        raise UsageError("grid solver requires a completely-S matrix")
    dt = np.diff(grid)
    rates = _Rates(a1, a2, _slopes(np.diff(x, axis=0), dt))
    ts = grid.tolist()  # Python floats index faster in the marching loop
    ends, n = ts[1:], len(ts) - 1

    # (t, g1, g2, m1, m2) per breakpoint: rows[0] is already in a block, and
    # rows[-1] is the marching state
    rows = [(ts[0], max(float(x[0, 0]), 0.0), max(float(x[0, 1]), 0.0), 0.0, 0.0)]
    blocks = [_rows_array(rows)]
    k = 0
    while k < n:
        k = _march(rates, eps, ends, rows, k, n)
        window = RUN_GATE
        while k < n:
            _, g1, g2, m1, m2 = rows[-1]
            active = (g1 <= eps, g2 <= eps)
            hi = min(k + window, n)
            run = _run(rates[active], grid, dt, eps, active, (g1, g2, m1, m2), k, hi)
            if len(run):
                blocks += [_rows_array(rows)[1:], run]
                rows = [tuple(run[-1].tolist())]
                k += len(run)
            if k < hi:
                break
            window *= 2

    out = np.concatenate(blocks + [_rows_array(rows)[1:]])
    return _result(out[:, 0], out[:, 1:3], out[:, 3:], len(out) - 1, True, 0.0)


def _rows_array(rows: list) -> np.ndarray:
    """The (t, g1, g2, m1, m2) tuples as one (n, 5) array: `np.fromiter` over
    the flat floats, which reads them about twice as fast as `np.array`."""
    return np.fromiter(chain.from_iterable(rows), float, 5 * len(rows)).reshape(-1, 5)


def _run(table, grid, dt, eps, active, state, lo, hi) -> np.ndarray:
    """Rows (t, g1, g2, m1, m2) at the ends of segments lo, lo + 1, ... < hi
    from the state (g1, g2, m1, m2) at grid[lo], up to the first segment that
    `_march` would not take in one quiet sub-step under `active`: its rates
    are inadmissible, its active set differs, the clip at 0 applies, or a
    slack coordinate reaches zero in it. dt holds the grid's segment lengths.
    g and m are the `np.cumsum` of the sub-steps' increments, which adds in
    order like `_march`'s chain, in place in the array that holds the rows.

    Every g before the first stop is >= 0, so a clip is g < 0 at a segment's
    end and a change of active set is g <= eps at a segment's start compared
    with `active`: two tests on the whole window. A slack coordinate that
    `_march` sees reach zero within dt (g / -w < dt) ends its segment at
    g <= 0 (the quotient below dt means dt * -w > g exactly, so its rounding
    is >= g), and the next segment starts active. So a reach can only be the
    segment just before the first other stop, and it is tested there alone,
    with `_march`'s Python floats.
    """
    zw, bad = table
    n = hi - lo
    rows = np.empty((n + 1, 5))
    rows[:, 0] = grid[lo:hi + 1]
    x = rows[:, 1:]
    x[0] = state
    np.multiply(zw[lo:hi], dt[lo:hi, None], out=x[1:])
    np.add.accumulate(x, out=x)  # np.cumsum, in place
    stop = x[1:, :2] < 0  # the clip at 0
    stop |= (x[:-1, :2] <= eps) != active  # a change of active set
    stop = stop[:, 0] | stop[:, 1]
    stop |= bad[lo:hi]
    q = int(stop.argmax())
    if not stop[q]:
        q = n
    if q:  # segment q - 1's reach: only an inactive, falling coordinate has one
        j = q - 1
        (g1, g2), (w1, w2), d = x[j, :2].tolist(), zw[lo + j, :2].tolist(), dt[lo + j].item()
        if (not active[0] and w1 < 0 and not g1 / -w1 >= d
                or not active[1] and w2 < 0 and not g2 / -w2 >= d):
            q = j
    # a run cut short keeps a copy, so no block holds the window's unused rows
    return rows[1:q + 1].copy() if q < n else rows[1:]


def _march(rates: _Rates, eps, ends, rows: list, k: int, hi: int) -> int:
    """The event step: march segments k, k + 1, ... < hi from the state in
    rows[-1] = (t, g1, g2, m1, m2), g >= 0, segment j ending at ends[j] with
    its rates in row j of `rates`. Appends the row at the end of each
    sub-step and returns the next segment: hi, or the one after RUN_GATE
    segments in a row that were each one sub-step under one active set.

    Coordinates with g_j <= eps (eps = FLOAT_DEDUP * sup|f| from
    `_set_up`; g >= 0, so no abs) are active and only they may push; the
    rates are the row of the table for that active set, looked up at the
    first sub-step after the set changes, and a sub-step ends at the
    segment's end or at the first zero of a positive coordinate. m adds the
    sub-step's regulator increments in order. The comparisons stand for
    `min(a, b)`, which keeps a unless b < a, and `max(x, 0.0)`, which keeps
    x unless x < 0.0, so NaN and -0.0 come out as from the builtins.
    `solve_grid` calls it between its runs; `_march_rows` takes the same
    sub-steps on many segments at once, and tests pin the two to each other
    and to the step's first form.
    """
    t, g1, g2, m1, m2 = rows[-1]
    active, zw = (g1 <= eps, g2 <= eps), None
    quiet = 0
    while k < hi:
        tb, start, steps = ends[k], active, 0
        while t < tb:
            if steps == 1000:
                raise StepInfeasibleError("event cascade did not terminate", k)
            if zw is None:
                zw, bad = rates[active]
            if bad[k]:
                raise StepInfeasibleError("no admissible rate support", k)
            gr1, gr2, r1, r2 = zw[k].tolist()
            tau = span = tb - t
            if gr1 < 0 and not active[0]:
                reach = g1 / -gr1
                if reach < tau:
                    tau = reach
            if gr2 < 0 and not active[1]:
                reach = g2 / -gr2
                if reach < tau:
                    tau = reach
            if tau == span:
                t = tb
            else:
                t += tau
                if tb < t:
                    t = tb
            g1 += tau * gr1
            if g1 < 0.0 and gr1 < 0:
                g1 = 0.0
            g2 += tau * gr2
            if g2 < 0.0 and gr2 < 0:
                g2 = 0.0
            m1 += tau * r1
            m2 += tau * r2
            rows.append((t, g1, g2, m1, m2))
            steps += 1
            if (g1 <= eps) != active[0] or (g2 <= eps) != active[1]:
                active, zw = (g1 <= eps, g2 <= eps), None
        k += 1
        # only a change makes a new tuple, so `is` compares the sets
        quiet = quiet + 1 if steps == 1 and active is start else 0
        if quiet == RUN_GATE:
            break
    return k


def _march_rows(rates: _Rates, eps, g, m, ta, tb, k) -> tuple[np.ndarray, np.ndarray]:
    """`_march` on independent segments at once: row i marches grid segment
    k[i] = [ta[i], tb[i]] from g[i] >= 0 and m[i], with its rates in row i of
    `rates`. Returns the interior event times, by row and then in time, and
    the (n, 2) m at each of them: the state that the next round of sweeps
    starts from at those kinks.

    Each pass takes one sub-step on every unfinished row with the float
    operations of `_march` in the same order (`where(x < 0, 0.0, x)` is
    `max(x, 0.0)`, signed zeros included, and m adds `tau * r`), so the
    times and m are the scalar step's bits. A row whose rates are
    inadmissible, or that reaches the cap of 1000 sub-steps, leaves the
    batch and the rest march on; the smallest such row i raises what
    `_march` raises for its grid segment k[i].
    """
    rows, t, end, x, y = np.arange(len(k)), ta, tb, g, m
    times, ms, owners = [np.empty(0)], [np.empty((0, 2))], [rows[:0]]
    first, message = len(k), None  # the smallest failing row and its error
    for step in range(1001):
        live = t < end
        rows, t, end, x, y = rows[live], t[live], end[live], x[live], y[live]
        if not len(rows) or step == 1000:
            break
        active = np.abs(x) <= eps
        pattern = active[:, 0] + 2 * active[:, 1]
        zw = np.empty((len(rows), 4))
        bad = np.empty(len(rows), dtype=bool)
        for p in np.flatnonzero(np.bincount(pattern, minlength=4)).tolist():
            sel = pattern == p
            table, stuck = rates[(bool(p & 1), bool(p & 2))]
            zw[sel], bad[sel] = table[rows[sel]], stuck[rows[sel]]
        if bad.any():
            i = rows[bad.argmax()]
            if i < first:
                first, message = i, "no admissible rate support"
            ok = ~bad
            rows, t, end, x, y = rows[ok], t[ok], end[ok], x[ok], y[ok]
            zw, active = zw[ok], active[ok]
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
        y = y + tau[:, None] * zw[:, 2:]
        inner = t < end
        times.append(t[inner])
        ms.append(y[inner])
        owners.append(rows[inner])
    if len(rows) and rows[0] < first:  # rows left at the cap
        first, message = rows[0], "event cascade did not terminate"
    if message is not None:
        raise StepInfeasibleError(message, int(k[first]))
    order = np.argsort(np.concatenate(owners), kind="stable")
    return np.concatenate(times)[order], np.concatenate(ms)[order]
