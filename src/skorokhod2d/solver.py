"""Numerical solvers: reflection-map Picard iteration and LCP time stepping.

Both solvers work in float mode. The fixed-point solver iterates the
one-dimensional regulator map coordinate-wise (Gauss-Seidel sweeps, optional
damping) and then inserts the complementarity kink times into the grid so the
converged output is piecewise linear through the true solution's breakpoints.
The grid solver marches in time: within each step the active set is constant,
rates solve a small complementarity problem by support enumeration, and the
step is subdivided at the exact times where a slack coordinate hits zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import CRITICAL_BAND, ReflectionMatrix2, is_completely_s
from .errors import StepInfeasibleError, UsageError
from .paths import FLOAT, FLOAT_DEDUP, PLPath2, _merge, negligible, with_times


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
    After convergence the grid is enriched with the kink times where each
    regulator starts moving, so complementarity holds to machine precision.
    """
    _check_driving(f)
    a1, a2 = float(R.a1), float(R.a2)
    lam = cfg.damping
    grid = _grid_for(f, cfg)
    f1, f2 = with_times(f, grid).x.T.copy()  # contiguous rows for the sweeps

    if init is not None:
        m1 = np.asarray(init[0], dtype=float).copy()
        m2 = np.asarray(init[1], dtype=float).copy()
        if len(m1) != len(grid) or len(m2) != len(grid):
            raise UsageError("init arrays must match the grid length")
    else:
        m1 = np.zeros_like(grid)
        m2 = np.zeros_like(grid)

    total_iters = 0
    converged = False
    diff = np.inf
    scale = max(np.max(np.abs(f1)), np.max(np.abs(f2)))

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
        kinks = _kink_times(grid, (f1, f2), (m1, m2), (a1, a2), scale)
        enriched = _merge(grid, *kinks, mode=FLOAT)
        if len(enriched) == len(grid):
            break
        f1, f2 = with_times(f, enriched).x.T.copy()
        m1, m2 = with_times(PLPath2(grid, np.column_stack([m1, m2])), enriched).x.T.copy()
        grid = enriched

    g1 = f1 + m1 + a1 * m2
    g2 = f2 + a2 * m1 + m2
    g_path = PLPath2(grid, np.column_stack([g1, g2]), FLOAT)
    m_path = PLPath2(grid, np.column_stack([m1, m2]), FLOAT)
    return SolveResult(g_path, m_path, total_iters, converged, float(diff))


def _kink_times(grid, fs, ms, coeffs, scale) -> list[np.ndarray]:
    """Per regulator, ascending times where it starts to rise inside a segment."""
    f1, f2 = fs
    m1, m2 = ms
    a1, a2 = coeffs
    g1 = f1 + m1 + a1 * m2
    g2 = f2 + a2 * m1 + m2
    out = []
    for m, g in ((m1, g1), (m2, g2)):
        dm = np.diff(m)
        # a share of int g dm (value^2) above 1e-15 sup|f|^2: FLOAT_DEDUP loses kinks
        i = np.nonzero(0.5 * (g[:-1] + g[1:]) * dm > 1e-15 * scale**2)[0]
        phi0, phi1 = g[i], g[i + 1] - dm[i]
        cross = (phi0 > 0) & (0 > phi1)
        theta = np.full(len(i), 0.5)
        theta[cross] = phi0[cross] / (phi0[cross] - phi1[cross])
        # kinks at a segment's ends would grow the grid every round without end
        keep = (1e-9 < theta) & (theta < 1 - 1e-9)
        i, theta = i[keep], theta[keep]
        out.append(grid[i] + theta * (grid[i + 1] - grid[i]))
    return out


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

    Each grid step applies the rate complementarity problem for the current
    active set and subdivides at the exact instants where a positive
    coordinate of g reaches zero, so the output is the PL solution with its
    true breakpoints (up to float rounding).
    """
    _check_driving(f)
    if not is_completely_s(ReflectionMatrix2(float(R.a1), float(R.a2))):
        raise UsageError("grid solver requires a completely-S matrix")
    a1, a2 = float(R.a1), float(R.a2)
    grid = _grid_for(f, cfg)
    fg = with_times(f, grid)
    scale = float(np.max(np.abs(fg.x)))
    f1, f2 = fg.x.T.tolist()  # Python floats index faster in the marching loop

    times = [float(grid[0])]
    g_vals = [(max(f1[0], 0.0), max(f2[0], 0.0))]
    m_vals = [(0.0, 0.0)]
    steps = 0

    for k in range(len(grid) - 1):
        ta, tb = float(grid[k]), float(grid[k + 1])
        s1 = (f1[k + 1] - f1[k]) / (tb - ta)
        s2 = (f2[k + 1] - f2[k]) / (tb - ta)
        t = ta
        g1, g2 = g_vals[-1]
        mm1, mm2 = m_vals[-1]
        events = 0
        while t < tb:
            events += 1
            if events > 1000:
                raise StepInfeasibleError("event cascade did not terminate", k)
            active = (negligible(g1, scale, FLOAT), negligible(g2, scale, FLOAT))
            # rates: only coordinates sitting at zero may push
            rates = _lcp2(a1, a2, s1, s2, active)
            if rates is None:
                raise StepInfeasibleError("no admissible rate support", k)
            (dm1, dm2), (gr1, gr2) = rates
            # march to tb, or to the first zero of a positive coordinate
            tau = tb - t
            if not active[0] and gr1 < 0:
                tau = min(tau, g1 / -gr1)
            if not active[1] and gr2 < 0:
                tau = min(tau, g2 / -gr2)
            t = tb if tau == tb - t else min(t + tau, tb)
            g1 = max(g1 + tau * gr1, 0.0) if gr1 < 0 else g1 + tau * gr1
            g2 = max(g2 + tau * gr2, 0.0) if gr2 < 0 else g2 + tau * gr2
            mm1 += tau * dm1
            mm2 += tau * dm2
            steps += 1
            times.append(t)
            g_vals.append((g1, g2))
            m_vals.append((mm1, mm2))

    g_path = PLPath2(times, g_vals, FLOAT)
    m_path = PLPath2(times, m_vals, FLOAT)
    return SolveResult(g_path, m_path, steps, True, 0.0)
