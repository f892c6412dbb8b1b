"""Numerical solvers: reflection-map Picard iteration and LCP time stepping.

Both solvers work in float mode and share one event step, `_march`: it
marches one grid segment with a constant active set per sub-step, rates from
a small complementarity problem by support enumeration, and a sub-step ending
at the exact time where a slack coordinate of g reaches zero. The grid solver
chains it over every segment. The fixed-point solver iterates the
one-dimensional regulator map coordinate-wise (Gauss-Seidel sweeps, optional
damping) and then inserts the step's event times as kinks into the grid, so
the converged output is piecewise linear through the true solution's
breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import CRITICAL_BAND, ReflectionMatrix2, is_completely_s
from .errors import StepInfeasibleError, UsageError
from .paths import FLOAT, FLOAT_DEDUP, PLPath2, _merge, with_times


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
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0):
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
    grid = _merge(f.t, cfg.grid, mode=FLOAT)
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
    After convergence the grid is enriched with kinks: on each segment where
    a positive coordinate of g starts with its regulator rising, the marching
    step from the converged state gives the times where g reaches zero, so
    complementarity holds to machine precision.
    """
    _check_driving(f)
    a1, a2 = float(R.a1), float(R.a2)
    lam = cfg.damping
    grid = _grid_for(f, cfg)
    f1, f2 = with_times(f, grid).x.T.copy()  # contiguous rows for the sweeps

    if init is None:
        init = (np.zeros_like(grid),) * 2
    m1, m2 = (np.array(m, dtype=float) for m in init)
    if len(m1) != len(grid) or len(m2) != len(grid):
        raise UsageError("init arrays must match the grid length")

    total_iters = 0
    converged = False
    diff = np.inf
    eps = FLOAT_DEDUP * float(max(np.max(np.abs(f1)), np.max(np.abs(f2))))

    for _round in range(250):
        converged = False
        for _ in range(cfg.max_iter):
            total_iters += 1
            m1_new = (1 - lam) * m1 + lam * skorokhod_1d(f1 + a1 * m2)
            m2_new = (1 - lam) * m2 + lam * skorokhod_1d(f2 + a2 * m1_new)
            diff = max(
                float(np.max(np.abs(m1_new - m1))), float(np.max(np.abs(m2_new - m2)))
            )
            m1, m2 = m1_new, m2_new
            if diff < cfg.tol:
                converged = True
                break
        if not converged:
            break
        m = np.column_stack([m1, m2])
        kinks = _kink_times(grid, np.column_stack([f1, f2]), m, a1, a2, eps)
        enriched = _merge(grid, kinks, mode=FLOAT)
        if len(enriched) == len(grid):
            break
        f1, f2 = with_times(f, enriched).x.T.copy()
        m1, m2 = with_times(PLPath2._of(grid, m, FLOAT), enriched).x.T.copy()
        grid = enriched

    g1 = f1 + m1 + a1 * m2
    g2 = f2 + a2 * m1 + m2
    g_path = PLPath2(grid, np.column_stack([g1, g2]), FLOAT)
    m_path = PLPath2(grid, np.column_stack([m1, m2]), FLOAT)
    return SolveResult(g_path, m_path, total_iters, converged, float(diff))


def _kink_times(grid, f, m, a1, a2, eps) -> list:
    """Interior event times of `_march`, ascending, on each segment where a
    positive coordinate of g starts with its regulator rising."""
    g = f + np.column_stack([m[:, 0] + a1 * m[:, 1], a2 * m[:, 0] + m[:, 1]])
    k = np.nonzero(np.any((g[:-1] > eps) & (np.diff(m, axis=0) > 0), axis=1))[0]
    slopes = (f[k + 1] - f[k]) / (grid[k + 1] - grid[k])[:, None]
    segments = zip(k.tolist(), grid[k].tolist(), grid[k + 1].tolist(),
                   np.maximum(g[k], 0.0).tolist(), slopes.tolist())
    kinks = []
    for ki, ta, tb, (g1, g2), (s1, s2) in segments:
        steps = _march(a1, a2, eps, g1, g2, s1, s2, ta, tb, ki)
        kinks.extend(step[0] for step in steps[:-1])
    return kinks


# --- discrete complementarity stepping ---------------------------------------


def _lcp2(a1: float, a2: float, q1: float, q2: float, pushable=(True, True)):
    """Support enumeration for the 2x2 LCP w = q + R z, z >= 0, z_j w_j = 0.

    Only pushable coordinates may enter the support, and only they need
    w_j >= 0; the others keep z_j = 0 and an unconstrained w_j. Ties break to
    the smallest support, then the lexicographically smallest z. Returns
    (z, w) with z clipped at 0, or None if no support is admissible.
    """
    candidates = [(0, (0.0, 0.0), (q1, q2))]
    if pushable[0]:
        candidates.append((1, (-q1, 0.0), (0.0, q2 + a2 * -q1)))
    if pushable[1]:
        candidates.append((1, (0.0, -q2), (q1 + a1 * -q2, 0.0)))
    det = 1.0 - a1 * a2
    # a1*a2 within the critical band of 1: the full support is singular
    if pushable[0] and pushable[1] and abs(det) > CRITICAL_BAND:
        z = ((-q1 + a1 * q2) / det, (-q2 + a2 * q1) / det)
        candidates.append((2, z, (0.0, 0.0)))
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


def lcp_step(
    R: ReflectionMatrix2, g_prev, delta_f
) -> tuple[tuple[float, float], tuple[float, float]]:
    """One complementarity step: find dm >= 0 with g_next = g_prev + df + R dm >= 0
    and dm complementary to g_next, by enumerating the four support sets.

    Both coordinates may push; ties (possible for completely-S but non-P
    matrices) break to the smallest support, then the lexicographically
    smallest dm. Admissibility allows FLOAT_DEDUP * max(|g_prev + df|) of
    slack, and the returned g and dm are clipped at 0.
    """
    q1 = float(g_prev[0]) + float(delta_f[0])
    q2 = float(g_prev[1]) + float(delta_f[1])
    step = _lcp2(float(R.a1), float(R.a2), q1, q2)
    if step is None:
        raise StepInfeasibleError("no admissible support set")
    dm, g = step
    return (max(g[0], 0.0), max(g[1], 0.0)), dm


def solve_grid(R: ReflectionMatrix2, f: PLPath2, cfg: SolveConfig) -> SolveResult:
    """Time-marching solver for any completely-S matrix.

    Chains the event step `_march` over the grid's segments, so the output
    is the PL solution with its true breakpoints (up to float rounding).
    """
    _check_driving(f)
    if not is_completely_s(ReflectionMatrix2(float(R.a1), float(R.a2))):
        raise UsageError("grid solver requires a completely-S matrix")
    a1, a2 = float(R.a1), float(R.a2)
    grid = _grid_for(f, cfg)
    fg = with_times(f, grid)
    eps = FLOAT_DEDUP * float(np.max(np.abs(fg.x)))
    f1, f2 = fg.x.T.tolist()  # Python floats index faster in the marching loop
    ts = grid.tolist()

    g1, g2 = max(f1[0], 0.0), max(f2[0], 0.0)
    mm1 = mm2 = 0.0
    rows = [(ts[0], g1, g2, mm1, mm2)]  # (t, g1, g2, m1, m2) per breakpoint
    for k in range(len(ts) - 1):
        ta, tb = ts[k], ts[k + 1]
        s1 = (f1[k + 1] - f1[k]) / (tb - ta)
        s2 = (f2[k + 1] - f2[k]) / (tb - ta)
        for t, g1, g2, dm1, dm2 in _march(a1, a2, eps, g1, g2, s1, s2, ta, tb, k):
            mm1 += dm1
            mm2 += dm2
            rows.append((t, g1, g2, mm1, mm2))

    out = np.array(rows)
    g_path = PLPath2(out[:, 0], out[:, 1:3], FLOAT)
    m_path = PLPath2(out[:, 0], out[:, 3:], FLOAT)
    return SolveResult(g_path, m_path, len(rows) - 1, True, 0.0)


def _march(a1, a2, eps, g1, g2, s1, s2, ta, tb, k) -> list:
    """The event step: march grid segment k = [ta, tb] from g = (g1, g2) >= 0
    under the driving slope (s1, s2), as sub-steps (t, g1, g2, dm1, dm2)
    ending at t, dm the regulator's increment over the sub-step.

    Coordinates with |g_j| <= eps (eps = FLOAT_DEDUP * sup|f|, the
    `negligible` rule) are active and only they may push; the
    rates solve the 2x2 LCP for that active set, and a sub-step ends at tb or
    at the first zero of a positive coordinate.
    """
    steps = []
    t = ta
    while t < tb:
        if len(steps) == 1000:
            raise StepInfeasibleError("event cascade did not terminate", k)
        active = (abs(g1) <= eps, abs(g2) <= eps)
        rates = _lcp2(a1, a2, s1, s2, active)
        if rates is None:
            raise StepInfeasibleError("no admissible rate support", k)
        (r1, r2), (gr1, gr2) = rates
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
