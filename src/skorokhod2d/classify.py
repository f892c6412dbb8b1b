"""Reflection-matrix normalization and the five-regime uniqueness taxonomy.

A 2x2 reflection matrix with positive diagonal is normalized to unit diagonal
R = [[1, a1], [a2, 1]]. Completely-S (existence), the spectral radius
sqrt(|a1*a2|) of |I - R|, and the uniqueness regime all depend only on
(a1, a2). Criticality (|a1*a2| = 1) is decided exactly for exact inputs; for
float inputs a band of width 2^-40 around 1 is treated as critical and the
classification carries a caveat flag.

Every function here reads matrix entries through one number rule
(`_numbers`): they are exact Fractions when each is a Dyadic, an int or numpy
integer (not a bool) or a Fraction, and floats otherwise. Two matrices are
the same (`_same_matrix`) when their entries are equal, exactly or within
CRITICAL_BAND. `diagonal_rescale` is the one transport of a matrix and of a
candidate triple.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .dyadic import Dyadic
from .errors import ExactnessError, InvalidMatrixError, UsageError
from . import paths

#: float-mode half-width of the band around |a1*a2| = 1 (unitless, so absolute)
CRITICAL_BAND = 2.0**-40


@dataclass(frozen=True)
class GeneralMatrix2:
    r11: object
    r12: object
    r21: object
    r22: object


@dataclass(frozen=True)
class ReflectionMatrix2:
    """R = [[1, a1], [a2, 1]]."""

    a1: object
    a2: object


class Regime(Enum):
    NotCompletelyS = "NotCompletelyS"
    Case1_UniqueContraction = "Case1_UniqueContraction"
    Case2_UniqueCritical = "Case2_UniqueCritical"
    Case3_CriticalPositive = "Case3_CriticalPositive"
    Case4_NonUniqueOpposite = "Case4_NonUniqueOpposite"
    Case5_NonUniquePositive = "Case5_NonUniquePositive"


UNIQUENESS_NOTES = {
    Regime.NotCompletelyS: "existence fails for some driving functions",
    Regime.Case1_UniqueContraction: "unique solution for every driving function",
    Regime.Case2_UniqueCritical: "unique solution for every driving function",
    Regime.Case3_CriticalPositive: "unique g but not m",
    Regime.Case4_NonUniqueOpposite: "non-unique",
    Regime.Case5_NonUniquePositive: "non-unique",
}


def _numbers(*xs) -> tuple:
    """The entries as Fractions when every one is exact (a Dyadic, an int or
    numpy integer but not a bool, or a Fraction), else as floats."""
    exact = (Dyadic, int, np.integer, Fraction)
    if all(isinstance(x, exact) and not isinstance(x, bool) for x in xs):
        return tuple(x.as_fraction() if isinstance(x, Dyadic) else
                     x if isinstance(x, Fraction) else Fraction(int(x)) for x in xs)
    return tuple(float(x) for x in xs)


def _same_matrix(r1: ReflectionMatrix2, r2: ReflectionMatrix2) -> bool:
    """Equal entries: exactly when all four are exact, else within
    CRITICAL_BAND, as the entries are unitless."""
    a1, a2, b1, b2 = _numbers(r1.a1, r1.a2, r2.a1, r2.a2)
    if isinstance(a1, Fraction):
        return a1 == b1 and a2 == b2
    return abs(a1 - b1) <= CRITICAL_BAND and abs(a2 - b2) <= CRITICAL_BAND


def normalize(M: GeneralMatrix2) -> tuple[ReflectionMatrix2, tuple]:
    """Unit-diagonal form plus the diagonal scale factors (d1, d2).

    The rescaled regulator is m~_i = d_i * m_i, so callers can map solutions
    of the normalized problem back to the original matrix.
    """
    r11, r12, r21, r22 = _numbers(M.r11, M.r12, M.r21, M.r22)
    if not (r11 > 0 and r22 > 0):
        raise InvalidMatrixError("diagonal entries must be positive")
    return ReflectionMatrix2(r12 / r22, r21 / r11), (M.r11, M.r22)


def _product(R: ReflectionMatrix2):
    """a1*a2 as Fraction when both entries are exact, else float."""
    a1, a2 = _numbers(R.a1, R.a2)
    return a1 * a2


def is_completely_s(R: ReflectionMatrix2) -> bool:
    """Existence criterion: some x >= 0 has Rx > 0."""
    a1, a2 = _numbers(R.a1, R.a2)
    return a1 > 0 or a2 > 0 or a1 * a2 < 1


class RadiusResult(NamedTuple):
    value: object  # Dyadic when exact, else float
    exact: bool


def spectral_radius_abs_q(R: ReflectionMatrix2) -> RadiusResult:
    """sqrt(|a1*a2|), the spectral radius of |I - R|.

    Exact (Dyadic) when the radicand has an exact dyadic root; otherwise a
    double with relative error well under 2^-50, flagged inexact. A double
    root past the largest double is an OverflowError.
    """
    a1, a2 = _numbers(R.a1, R.a2)
    if isinstance(a1, Fraction):
        try:
            root = Dyadic.from_fraction(abs(a1 * a2)).sqrt_exact()
        except ExactnessError:  # the radicand is not dyadic
            root = None
        if root is not None:
            return RadiusResult(root, True)
    return RadiusResult(_root(a1, a2), False)


def _root(a1, a2) -> float:
    """sqrt(|a1*a2|) as a double, from the product scaled by an even power of
    two into [1/4, 4), so that neither the product nor the root leaves the
    double range on the way. Scaling by a power of four is exact, so where
    the product is a normal double this is math.sqrt(abs(a1*a2)) bit for
    bit: both round the product once and the root once."""
    if isinstance(a1, Fraction):
        p = abs(a1 * a2)
        e = p.numerator.bit_length() - p.denominator.bit_length()
        q = float(p / Fraction(2) ** e)
    else:
        (m1, e1), (m2, e2) = math.frexp(a1), math.frexp(a2)
        q, e = abs(m1 * m2), e1 + e2
    return math.ldexp(math.sqrt(q * 2 ** (e % 2)), e // 2)


def _criticality(R: ReflectionMatrix2) -> tuple[int, bool]:
    """(-1, 0, +1) for |a1*a2| vs 1, plus a float-ambiguity caveat flag."""
    p = _product(R)
    if isinstance(p, Fraction):
        mag = abs(p)
        return (mag > 1) - (mag < 1), False
    mag = abs(p)
    if abs(mag - 1.0) <= CRITICAL_BAND:
        return 0, True
    return (1 if mag > 1.0 else -1), False


def classify_regime(R: ReflectionMatrix2) -> Regime:
    if not is_completely_s(R):
        return Regime.NotCompletelyS
    cmp1, _ = _criticality(R)
    a1, a2 = _numbers(R.a1, R.a2)
    both_positive = a1 > 0 and a2 > 0
    if cmp1 < 0:
        return Regime.Case1_UniqueContraction
    if cmp1 == 0:
        return Regime.Case3_CriticalPositive if both_positive else Regime.Case2_UniqueCritical
    return Regime.Case5_NonUniquePositive if both_positive else Regime.Case4_NonUniqueOpposite


@dataclass(frozen=True)
class Classification:
    regime: Regime
    completely_s: bool
    radius: float
    radius_exact: bool
    critical_caveat: bool
    uniqueness_note: str


def classify(R: ReflectionMatrix2) -> Classification:
    """Full classification record, as reported by the CLI."""
    regime = classify_regime(R)
    _, caveat = _criticality(R)
    try:
        rad = spectral_radius_abs_q(R)
        radius = float(rad.value)
    except OverflowError:
        raise UsageError("spectral radius sqrt(|a1*a2|) beyond the double range") from None
    return Classification(
        regime=regime,
        completely_s=is_completely_s(R),
        radius=radius,
        radius_exact=rad.exact,
        critical_caveat=caveat,
        uniqueness_note=UNIQUENESS_NOTES[regime],
    )


def diagonal_rescale(R: ReflectionMatrix2, C, triple: Optional[object] = None):
    """Similarity-style rescaling S = [[1, C*a1], [a2/C, 1]] for C > 0.

    A candidate triple (fields R, f, g, m) transforms alongside: component 1
    unchanged, component 2 scaled by 1/C. The regime, the product a1*a2 and
    pass/fail of verification are invariant.
    """
    if not C > 0:
        raise UsageError("rescale constant must be positive")
    if triple is not None and triple.f.mode == paths.EXACT:
        # an exact triple takes C exactly, so S is not rounded; 1/C must be dyadic
        C = paths._coerce_scalar(C, paths.EXACT)
    a1, a2, c = _numbers(R.a1, R.a2, C)
    S = ReflectionMatrix2(a1 * c, a2 / c)
    if triple is None:
        return S, None
    inv = 1 / paths._coerce_scalar(C, triple.f.mode)
    moved = {k: paths.scale_components(getattr(triple, k), 1, inv) for k in "fgm"}
    tail = getattr(triple, "tail_bound", None)
    if tail is not None:
        moved["tail_bound"] = tail * max(1, inv)
    return S, dataclasses.replace(triple, R=S, **moved)
