"""Exact construction of the non-uniqueness example on the quadrant.

For a reflection matrix with a2 = 1 and a1 < -1 the spiral path u alternates
between the lines u1 + u2 = 0 and u1 + a1*u2 = 0, expanding by |a1| per
quarter turn as t grows through the dyadic times t_n = 2^-n. Its minimal
monotone decomposition (m, mbar) yields one driving function f with two
distinct solutions (f, g, m) and (f, gbar, mbar).

The accumulation point at t = 0 cannot be represented with finitely many
breakpoints, so a construction of depth d covers [2^-d, 1] exactly and
carries an analytic tail bound for the omitted initial interval. The
decomposition is offset by the split of u(2^-d) into positive and negative
parts so that m - mbar equals u itself, which keeps the solution gap at t = 1
exactly (|a1| + 1, 0).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .classify import ReflectionMatrix2
from .dyadic import Dyadic, to_dyadic
from .errors import ConstructionError, ExactnessError, UsageError
from .paths import (
    EXACT,
    FLOAT,
    FLOAT_DEDUP,
    MonotoneDecomp,
    PLPath2,
    Scalar,
    _array,
    _coerce_scalar,
    jordan_decompose,
    matrix_apply,
    minus_part,
    negate,
    negligible,
    path_min,
    path_sub,
    plus_part,
    sup_distance,
)
from .verifier import SolutionTriple


@dataclass(frozen=True)
class CounterexampleBundle:
    R: ReflectionMatrix2
    u: PLPath2
    decomp: MonotoneDecomp  # offset so that m - mbar = u on the whole range
    f: PLPath2
    g: PLPath2
    gbar: PLPath2
    depth: int
    tail_bound: Scalar
    rho: Scalar  # contraction ratio 1/|a1| of the spiral

    @property
    def tol(self) -> Scalar:
        """The bundle's certification tolerance: 0 for an exact bundle,
        FLOAT_DEDUP for a float one."""
        return 0 if self.u.mode == EXACT else FLOAT_DEDUP

    def triple(self) -> SolutionTriple:
        return SolutionTriple(self.R, self.f, self.g, self.decomp.m, self.tail_bound)

    def triple_bar(self) -> SolutionTriple:
        return SolutionTriple(self.R, self.f, self.gbar, self.decomp.mbar, self.tail_bound)


def _resolve_mode(a1, depth: int, mode: str):
    """Check the spiral's parameters; (mode, a1, rho = 1/|a1|), exact if rho is dyadic."""
    if not a1 < -1:
        raise ConstructionError("spiral requires a1 < -1 (it must expand)")
    if depth < 4 or depth % 4:
        raise ConstructionError("depth must be a positive multiple of 4")
    if mode not in ("auto", EXACT, FLOAT):
        raise UsageError(f"unknown mode {mode!r}")
    if mode != FLOAT:
        try:
            a1d = to_dyadic(a1)
            return EXACT, a1d, Dyadic(1) / abs(a1d)
        except (ExactnessError, TypeError):
            if mode == EXACT:
                raise ExactnessError(f"a1={a1!r} does not admit exact construction")
    rho = 1.0 / abs(float(a1))
    if not _fits_doubles(rho, depth):
        deepest = 0
        while _fits_doubles(rho, deepest + 4):  # ends by depth 1072, where 2^-1076 is 0
            deepest += 4
        raise ConstructionError(
            f"float spiral with a1={float(a1)!r} does not fit in doubles at depth {depth}: "
            + (f"the largest depth that works is {deepest}" if deepest else "no depth works"))
    return FLOAT, float(a1), rho


def _fits_doubles(rho: float, depth: int) -> bool:
    """The float spiral's smallest time 2^-depth is not 0 and its smallest
    vertex coordinate rho^(depth/2) is a normal double (a subnormal one has
    too few bits to lie on a reference line)."""
    return 0.5**depth > 0 and rho ** (depth // 2) >= sys.float_info.min


def build_u(a1, depth: int, mode: str = "auto") -> PLPath2:
    """The expanding spiral: breakpoints at t_n = 2^-n, n = depth..0.

    Every breakpoint lies on one of the two reference lines, and exactly one
    coordinate changes per segment, so the monotone decomposition reads off
    segment by segment.
    """
    return _spiral(depth, *_resolve_mode(a1, depth, mode))


def _spiral(depth: int, mode: str, a1, rho) -> PLPath2:
    n = np.arange(depth, -1, -1)
    k, r = np.divmod(n, 4)
    # quarter turn r: |u1| = rho^(2k + (0, 0, 1, 1)[r]) with signs (-, -, +, +),
    # |u2| = rho^(2k + (0, 1, 1, 2)[r]) with signs (+, -, -, +)
    pow_rho = _powers(rho, depth + 3, mode)
    x1, x2 = pow_rho[2 * k + r // 2], pow_rho[2 * k + (r + 1) // 2]
    x = np.column_stack([np.where(r < 2, -x1, x1), np.where((r == 1) | (r == 2), -x2, x2)])
    u = PLPath2(_powers(_coerce_scalar(0.5, mode), depth + 1, mode)[n], x, mode)
    _guard_geometry(u, a1)
    return u


def _powers(base, count: int, mode: str):
    """base**j for j < count, each the one before times base."""
    return np.cumprod(_array([1] + [base] * (count - 1), mode))


def _guard_geometry(u: PLPath2, a1) -> None:
    """Line membership, relative to the terms summed, and exactly one changed
    coordinate per segment (the other is copied bit for bit). Both hold by
    construction; the guard protects against regressions when a1 != -2."""
    x1, x2 = u.x.T
    on = [negligible(x1 + y, np.maximum(abs(x1), abs(y))) for y in (x2, a1 * x2)]
    off = np.nonzero(~(on[0] | on[1]))[0]  # u1 + u2 = 0 or u1 + a1 u2 = 0
    if len(off):
        raise ConstructionError(f"breakpoint {u.values[off[0]]} lies on neither reference line")
    moved = np.diff(u.x, axis=0) != 0
    both = np.nonzero(moved[:, 0] == moved[:, 1])[0]
    if len(both):
        raise ConstructionError(f"segment {both[0]} must change exactly one coordinate")


def build_counterexample(a1, depth: int = 40, mode: str = "auto") -> CounterexampleBundle:
    """Full bundle: spiral, decomposition, driving function and both solutions."""
    use_mode, a1c, rho = _resolve_mode(a1, depth, mode)
    u = _spiral(depth, use_mode, a1c, rho)
    R = ReflectionMatrix2(a1c, _coerce_scalar(1, use_mode))

    base = jordan_decompose(u)
    # Offset by the split of u(t_depth) so that m - mbar = u exactly; the
    # offset mass is part of the tail the finite range cannot represent.
    u0 = u.x[0]
    m_off = np.where(u0 > 0, u0, 0)
    mb_off = m_off - u0
    m = PLPath2(u.t, base.m.x + m_off, use_mode)
    mbar = PLPath2(u.t, base.mbar.x + mb_off, use_mode)

    rm = matrix_apply(R.a1, R.a2, m)
    rmbar = matrix_apply(R.a1, R.a2, mbar)
    f = negate(path_min(rm, rmbar))
    diff = path_sub(rm, rmbar)
    g = plus_part(diff)
    gbar = minus_part(diff)

    tail_bound = 4 * rho ** (depth // 2)

    return CounterexampleBundle(
        R=R,
        u=u,
        decomp=MonotoneDecomp(m, mbar),
        f=f,
        g=g,
        gbar=gbar,
        depth=depth,
        tail_bound=tail_bound,
        rho=rho,
    )


def check_identities(bundle: CounterexampleBundle) -> bool:
    """g = Rm - (Rm ^ Rmbar) and gbar = Rmbar - (Rm ^ Rmbar) at breakpoints."""
    rm = matrix_apply(bundle.R.a1, bundle.R.a2, bundle.decomp.m)
    rmbar = matrix_apply(bundle.R.a1, bundle.R.a2, bundle.decomp.mbar)
    low = path_min(rm, rmbar)
    return (
        sup_distance(bundle.g, path_sub(rm, low)) <= bundle.tol
        and sup_distance(bundle.gbar, path_sub(rmbar, low)) <= bundle.tol
    )


def solution_gap(bundle: CounterexampleBundle):
    """|g - gbar| at the final time; (|a1| + 1, 0) for the canonical spiral."""
    end = bundle.g.end_time
    gv = bundle.g.eval(end)
    gbv = bundle.gbar.eval(end)
    return (abs(gv[0] - gbv[0]), abs(gv[1] - gbv[1]))
