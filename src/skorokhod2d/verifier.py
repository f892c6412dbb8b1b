"""Certification of candidate Skorokhod solutions and uniqueness diagnostics.

A solution triple (R, f, g, m) is checked against the defining conditions:
g = f + R m, g >= 0, m starts at 0 and is nondecreasing, and the
complementarity integrals int g_j dm_j vanish. For truncated constructions a
precomputed analytic tail bound replaces the start-at-zero check. The
diagnostics side compares two candidate solutions through u = m - mbar, the
sector partition of the plane, and the Lyapunov quantity v = max(|u1|, |u2|).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .classify import ReflectionMatrix2
from .errors import UsageError
from .paths import (
    FLOAT_DEDUP,
    PLPath2,
    Scalar,
    matrix_apply,
    path_sub,
    refine,
    sup_distance,
    total_variation,
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


def verify(triple: SolutionTriple, tol, strict: bool = False) -> VerificationReport:
    """Per-condition residuals and verdict for a candidate solution.

    tol = 0 is meaningful in exact mode: every comparison is then exact.
    The paths are checked on the union of their grids, which keeps every
    breakpoint of f; paths whose time domains differ are refused.
    """
    f, g, m = refine(triple.f, triple.g, triple.m)
    rm = matrix_apply(triple.R.a1, triple.R.a2, m)

    eq_residual = max(
        max(abs(gv[0] - fv[0] - rv[0]), abs(gv[1] - fv[1] - rv[1]))
        for gv, fv, rv in zip(g.values, f.values, rm.values)
    )
    min_g = min(min(v[0], v[1]) for v in g.values)
    m_start = max(abs(m.values[0][0]), abs(m.values[0][1]))
    monotone_violation = min(
        m.values[i + 1][j] - m.values[i][j]
        for i in range(len(m.times) - 1)
        for j in (0, 1)
    ) if len(m.times) > 1 else m.values[0][0] - m.values[0][0]

    integrals = [trapezoid(g, m, j) for j in (0, 1)]

    # int g dm has units value^2: tol is weighed against m's total variation
    tv = total_variation(m, 0) + total_variation(m, 1)

    strict_ok: Optional[bool] = None
    if strict:
        strict_ok = True
        for i in range(len(m.times) - 1):
            for j in (0, 1):
                if m.values[i + 1][j] - m.values[i][j] > tol:
                    if g.values[i][j] > tol or g.values[i + 1][j] > tol:
                        strict_ok = False

    start_budget = triple.tail_bound if triple.tail_bound is not None else tol
    passed = (
        eq_residual <= tol
        and min_g >= -tol
        and m_start <= start_budget
        and monotone_violation >= -tol
        and all(c <= tol * tv for c in integrals)
        and (strict_ok is None or strict_ok)
    )
    return VerificationReport(
        eq_residual=eq_residual,
        min_g=min_g,
        m_start=m_start,
        monotone_violation=monotone_violation,
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


def sector_of(p) -> Sector:
    """Half-open quadrant (rotated 45 degrees) containing a plane point.

    Each sector owns exactly one of its two boundary rays (its clockwise
    one), so every nonzero point belongs to exactly one sector.
    """
    u1, u2 = p
    if u2 > 0 and -u2 < u1 <= u2:
        return Sector.N
    if u1 > 0 and -u1 <= u2 < u1:
        return Sector.E
    if u2 < 0 and u2 <= u1 < -u2:
        return Sector.S
    if u1 < 0 and u1 < u2 <= -u1:
        return Sector.W
    return Sector.Origin


# --- pairwise uniqueness diagnostics -----------------------------------------


@dataclass(frozen=True)
class UniquenessDiagnostics:
    u: PLPath2
    v: tuple
    sector_sequence: tuple
    v_monotone_on_support: bool
    max_v: Scalar

    def to_json(self) -> dict:
        return {
            "times": [float(t) for t in self.u.times],
            "u": [[float(x[0]), float(x[1])] for x in self.u.values],
            "v": [float(x) for x in self.v],
            "sectors": [s.value for s in self.sector_sequence],
            "v_monotone_on_support": self.v_monotone_on_support,
            "max_v": float(self.max_v),
        }


def _matrices_close(r1: ReflectionMatrix2, r2: ReflectionMatrix2, tol) -> bool:
    if tol == 0:
        return r1.a1 == r2.a1 and r1.a2 == r2.a2
    return abs(float(r1.a1) - float(r2.a1)) <= tol and abs(
        float(r1.a2) - float(r2.a2)
    ) <= tol


def compare_solutions(
    s1: SolutionTriple, s2: SolutionTriple, tol
) -> UniquenessDiagnostics:
    """Difference diagnostics u = m - mbar for two candidate solutions.

    For a genuinely unique regime max_v should sit at the noise floor; for a
    non-uniqueness pair v grows and v_monotone_on_support is False.
    """
    if not _matrices_close(s1.R, s2.R, tol):
        raise UsageError("solutions use different reflection matrices")
    if sup_distance(s1.f, s2.f) > tol:
        raise UsageError("solutions have different driving functions")
    u = path_sub(s1.m, s2.m)
    v = tuple(max(abs(x[0]), abs(x[1])) for x in u.values)
    sectors = tuple(sector_of(x) for x in u.values)
    monotone = True
    for i in range(len(v) - 1):
        if v[i] > tol and v[i + 1] > v[i] + tol:
            monotone = False
            break
    return UniquenessDiagnostics(
        u=u,
        v=v,
        sector_sequence=sectors,
        v_monotone_on_support=monotone,
        max_v=max(v),
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
    """
    canonical = ReflectionMatrix2(-1.0, 1.0)
    for s in (s1, s2):
        if not _matrices_close(s.R, canonical, max(tol, FLOAT_DEDUP)):
            raise UsageError("check_e2_signs requires R = [[1, -1], [1, 1]]")
    u = path_sub(s1.m, s2.m)
    worst = 0.0
    for i in range(len(u.times) - 1):
        a, b = u.values[i], u.values[i + 1]
        mid1 = (float(a[0]) + float(b[0])) / 2
        mid2 = (float(a[1]) + float(b[1])) / 2
        du1 = float(b[0]) - float(a[0])
        du2 = float(b[1]) - float(a[1])
        segvar = abs(du1) + abs(du2)
        budget = float(tol) * segvar
        p1 = (mid1 + mid2) * du2
        p2 = (mid1 - mid2) * du1
        worst = max(worst, p1, p2)
        if p1 > budget or p2 > budget:
            return E2Report(False, first_violation=i, worst_product=worst)
    return E2Report(True, worst_product=worst)
