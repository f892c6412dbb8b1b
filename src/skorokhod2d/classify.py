"""Reflection-matrix normalization and the five-regime uniqueness taxonomy.

A 2x2 reflection matrix with positive diagonal is normalized to unit diagonal
R = [[1, a1], [a2, 1]]. Completely-S (existence), the spectral radius
sqrt(|a1*a2|) of |I - R|, and the uniqueness regime all depend only on
(a1, a2). Criticality (|a1*a2| = 1) is decided exactly for exact inputs; for
float inputs a band of width 2^-40 around 1 is treated as critical and the
classification carries a caveat flag.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .dyadic import Dyadic, to_dyadic
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

    def rows(self):
        return ((1, self.a1), (self.a2, 1))


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


def _is_exact(x) -> bool:
    return isinstance(x, (Dyadic, int, Fraction)) and not isinstance(x, bool)


def _exact_value(x) -> Fraction:
    return x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)


def normalize(M: GeneralMatrix2) -> tuple[ReflectionMatrix2, tuple]:
    """Unit-diagonal form plus the diagonal scale factors (d1, d2).

    The rescaled regulator is m~_i = d_i * m_i, so callers can map solutions
    of the normalized problem back to the original matrix.
    """
    exact = all(_is_exact(x) for x in (M.r11, M.r12, M.r21, M.r22))
    if exact:
        r11, r12, r21, r22 = (_exact_value(x) for x in (M.r11, M.r12, M.r21, M.r22))
    else:
        r11, r12, r21, r22 = (float(x) for x in (M.r11, M.r12, M.r21, M.r22))
    if not (r11 > 0 and r22 > 0):
        raise InvalidMatrixError("diagonal entries must be positive")
    return ReflectionMatrix2(r12 / r22, r21 / r11), (M.r11, M.r22)


def _product(R: ReflectionMatrix2):
    """a1*a2 as Fraction when both entries are exact, else float."""
    if _is_exact(R.a1) and _is_exact(R.a2):
        return _exact_value(R.a1) * _exact_value(R.a2)
    return float(R.a1) * float(R.a2)


def is_completely_s(R: ReflectionMatrix2) -> bool:
    """Existence criterion: some x >= 0 has Rx > 0."""
    return R.a1 > 0 or R.a2 > 0 or _product(R) < 1


class RadiusResult(NamedTuple):
    value: object  # Dyadic when exact, else float
    exact: bool


def spectral_radius_abs_q(R: ReflectionMatrix2) -> RadiusResult:
    """sqrt(|a1*a2|), the spectral radius of |I - R|.

    Exact (Dyadic) when the radicand has an exact dyadic root; otherwise a
    double with relative error well under 2^-50, flagged inexact.
    """
    p = _product(R)
    if isinstance(p, Fraction):
        try:
            root = Dyadic.from_fraction(abs(p)).sqrt_exact()
        except ExactnessError:  # the radicand is not dyadic
            root = None
        if root is not None:
            return RadiusResult(root, True)
    return RadiusResult(math.sqrt(abs(p)), False)


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
    both_positive = R.a1 > 0 and R.a2 > 0
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
    rad = spectral_radius_abs_q(R)
    return Classification(
        regime=regime,
        completely_s=is_completely_s(R),
        radius=float(rad.value),
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
    if _is_exact(R.a1) and _is_exact(C):
        Cf = _exact_value(C)
        a1 = _exact_value(R.a1) * Cf
        a2 = _exact_value(R.a2) / Cf
        S = ReflectionMatrix2(a1, a2)
    else:
        S = ReflectionMatrix2(float(R.a1) * float(C), float(R.a2) / float(C))
    if triple is None:
        return S, None
    if triple.f.mode == paths.EXACT:
        inv = Dyadic(1) / to_dyadic(C)
        one = Dyadic(1)
        S = ReflectionMatrix2(
            to_dyadic(R.a1) * to_dyadic(C), to_dyadic(R.a2) * inv
        )
    else:
        inv = 1.0 / float(C)
        one = 1.0
    kwargs = dict(
        R=S,
        f=paths.scale_components(triple.f, one, inv),
        g=paths.scale_components(triple.g, one, inv),
        m=paths.scale_components(triple.m, one, inv),
    )
    tail = getattr(triple, "tail_bound", None)
    if tail is not None:
        kwargs["tail_bound"] = tail * max(one, inv)
    return S, dataclasses.replace(triple, **kwargs)
