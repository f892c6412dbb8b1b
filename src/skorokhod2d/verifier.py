"""Certification of candidate Skorokhod solutions and uniqueness diagnostics.

A solution triple (R, f, g, m) is checked against the defining conditions:
g = f + R m, g >= 0, m starts at 0 and is nondecreasing, and the
complementarity integrals int g_j dm_j vanish. For truncated constructions a
precomputed analytic tail bound replaces the start-at-zero check. The
diagnostics side compares two candidate solutions through u = m - mbar, the
sector partition of the plane, and the Lyapunov quantity v = max(|u1|, |u2|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .classify import ReflectionMatrix2, _same_matrix
from .errors import UsageError
from .paths import (
    FLOAT,
    PLPath2,
    Scalar,
    _py,
    matrix_apply,
    path_sub,
    refine,
    sup_distance,
    trapezoid,
)


@dataclass(frozen=True)
class SolutionTriple:
    R: ReflectionMatrix2
    f: PLPath2
    g: PLPath2
    m: PLPath2
    #: analytic bound covering the omitted initial interval of a truncated
    #: construction; None for paths that genuinely start at their origin
    tail_bound: Optional[Scalar] = None

    def __post_init__(self):
        if not (self.f.mode == self.g.mode == self.m.mode):
            raise UsageError("triple paths must share a mode")


@dataclass(frozen=True)
class VerificationReport:
    eq_residual: Scalar
    min_g: Scalar
    m_start: Scalar
    monotone_violation: Scalar
    comp_integrals: tuple
    tail_bound: Optional[Scalar]
    tol: Scalar
    strict_support_ok: Optional[bool]
    passed: bool

    def to_json(self) -> dict:
        return {
            "eq_residual": float(self.eq_residual),
            "min_g": float(self.min_g),
            "m_start": float(self.m_start),
            "monotone_violation": float(self.monotone_violation),
            "comp_integrals": [float(c) for c in self.comp_integrals],
            "tail_bound": None if self.tail_bound is None else float(self.tail_bound),
            "tol": float(self.tol),
            "strict_support_ok": self.strict_support_ok,
            "pass": self.passed,
        }


def _check_tol(tol, name: str = "tol") -> None:
    """Refuse any tol that is not >= 0: a NaN tol would pass every `x > tol`."""
    if not tol >= 0:
        raise UsageError(f"{name} must be nonnegative, got {tol}")


def verify(triple: SolutionTriple, tol, strict: bool = False) -> VerificationReport:
    """Per-condition residuals and verdict for a candidate solution.

    tol = 0 is meaningful in exact mode: every comparison is then exact.
    The paths are checked on the union of their grids, which keeps every
    breakpoint of every path; paths whose time domains differ are refused.
    """
    _check_tol(tol)
    f, g, m = refine(triple.f, triple.g, triple.m)
    rm = matrix_apply(triple.R.a1, triple.R.a2, m)

    eq_residual = np.max(abs(g.x - f.x - rm.x))
    min_g = np.min(g.x)
    m_start = np.max(abs(m.x[0]))
    # a float increment past the double range comes out inf, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        dm = np.diff(m.x, axis=0)
        tv = _py(np.sum(abs(dm[:, 0]), initial=0)) + _py(np.sum(abs(dm[:, 1]), initial=0))
    monotone_violation = np.min(dm) if len(dm) else m.x[0, 0] - m.x[0, 0]

    integrals = [trapezoid(g, m, j) for j in (0, 1)]

    # int g dm has units value^2: tol is weighed against m's total variation.
    # An integral that overflowed (inf, or nan) fails unless tol is infinite,
    # and an infinite tol stays infinite, also for exact paths and a constant m
    comp_ok = tol == math.inf or all(abs(c) < math.inf and c <= tol * tv for c in integrals)

    strict_ok: Optional[bool] = None
    if strict:
        # m may rise on a segment only where g is zero at both of its ends
        strict_ok = not np.any((dm > tol) & ((g.x[:-1] > tol) | (g.x[1:] > tol)))

    start_budget = triple.tail_bound if triple.tail_bound is not None else tol
    _check_tol(start_budget, "tail_bound")
    passed = (
        eq_residual <= tol
        and min_g >= -tol
        and m_start <= start_budget
        and monotone_violation >= -tol
        and comp_ok
        and (strict_ok is None or strict_ok)
    )
    return VerificationReport(
        eq_residual=_py(eq_residual),
        min_g=_py(min_g),
        m_start=_py(m_start),
        monotone_violation=_py(monotone_violation),
        comp_integrals=(integrals[0], integrals[1]),
        tail_bound=triple.tail_bound,
        tol=tol,
        strict_support_ok=strict_ok,
        passed=bool(passed),
    )


# --- sector partition --------------------------------------------------------


class Sector(Enum):
    N = "N"
    E = "E"
    S = "S"
    W = "W"
    Origin = "Origin"


_SECTORS = np.array(list(Sector), dtype=object)  # N, E, S, W, Origin


def _sectors(x: np.ndarray) -> tuple:
    """Half-open quadrant (rotated 45 degrees) of each row of an (n, 2) array
    of plane points, float64 or Dyadic.

    Each sector owns exactly one of its two boundary rays (its clockwise
    one), so every nonzero point belongs to exactly one sector.
    """
    u1, u2 = x[:, 0], x[:, 1]
    owned = [
        (u2 > 0) & (-u2 < u1) & (u1 <= u2),  # N
        (u1 > 0) & (-u1 <= u2) & (u2 < u1),  # E
        (u2 < 0) & (u2 <= u1) & (u1 < -u2),  # S
        (u1 < 0) & (u1 < u2) & (u2 <= -u1),  # W
    ]
    return tuple(_SECTORS[np.select(owned, [0, 1, 2, 3], 4)])


def sector_of(p) -> Sector:
    """`_sectors` of one plane point."""
    return _sectors(np.array([p]))[0]


# --- pairwise uniqueness diagnostics -----------------------------------------


@dataclass(frozen=True)
class UniquenessDiagnostics:
    u: PLPath2
    v: tuple
    sector_sequence: tuple
    v_monotone_on_support: bool
    max_v: Scalar

    def to_json(self) -> dict:
        u = self.u
        if u.mode == FLOAT:
            times, points = u.t.tolist(), u.x.tolist()
        else:
            times = [float(t) for t in u.times]
            points = [[float(x[0]), float(x[1])] for x in u.values]
        return {
            "times": times,
            "u": points,
            "v": [float(x) for x in self.v],
            "sectors": [s._value_ for s in self.sector_sequence],  # not the slower .value
            "v_monotone_on_support": self.v_monotone_on_support,
            "max_v": float(self.max_v),
        }


def compare_solutions(
    s1: SolutionTriple, s2: SolutionTriple, tol
) -> UniquenessDiagnostics:
    """Difference diagnostics u = m - mbar for two candidate solutions.

    For a genuinely unique regime max_v should sit at the noise floor; for a
    non-uniqueness pair v grows and v_monotone_on_support is False. The
    matrices must be the same (`_same_matrix`); tol weighs values only.
    """
    _check_tol(tol)
    if not _same_matrix(s1.R, s2.R):
        raise UsageError("solutions use different reflection matrices")
    if sup_distance(s1.f, s2.f) > tol:
        raise UsageError("solutions have different driving functions")
    u = path_sub(s1.m, s2.m)
    v = np.max(abs(u.x), axis=1)
    return UniquenessDiagnostics(
        u=u,
        v=tuple(v.tolist()),
        sector_sequence=_sectors(u.x),
        v_monotone_on_support=not np.any((v[:-1] > tol) & (v[1:] - v[:-1] > tol)),
        max_v=_py(np.max(v)),
    )


@dataclass(frozen=True)
class E2Report:
    ok: bool
    first_violation: Optional[int] = None
    worst_product: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def check_e2_signs(s1: SolutionTriple, s2: SolutionTriple, tol=0.0) -> E2Report:
    """Segment sign checks (u1+u2) du2 <= 0 and (u1-u2) du1 <= 0.

    Only meaningful for the canonical critical matrix [[1, -1], [1, 1]];
    midpoint values stand in for the measure-theoretic statement on PL data.
    The two solutions must solve one problem: as in `compare_solutions`,
    drivers further apart than tol are refused.
    """
    _check_tol(tol)
    canonical = ReflectionMatrix2(-1, 1)
    for s in (s1, s2):
        if not _same_matrix(s.R, canonical):
            raise UsageError("check_e2_signs requires R = [[1, -1], [1, 1]]")
    if sup_distance(s1.f, s2.f) > tol:
        raise UsageError("solutions have different driving functions")
    u = path_sub(s1.m, s2.m).x
    mid = (u[:-1] + u[1:]) / 2
    du = np.diff(u, axis=0)
    # in the triple's mode, so exact triples are checked exactly; an infinite
    # tol stays infinite, as in `verify`
    budget = tol if tol == math.inf else tol * (abs(du[:, 0]) + abs(du[:, 1]))
    p1 = (mid[:, 0] + mid[:, 1]) * du[:, 1]
    p2 = (mid[:, 0] - mid[:, 1]) * du[:, 0]
    bad = np.nonzero((p1 > budget) | (p2 > budget))[0]
    # the worst product up to the first violation, where the check stops
    end = bad[0] + 1 if len(bad) else len(p1)
    worst = float(np.max(np.maximum(p1, p2)[:end], initial=0.0))
    if len(bad):
        return E2Report(False, first_violation=int(bad[0]), worst_product=worst)
    return E2Report(True, worst_product=worst)
