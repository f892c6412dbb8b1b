import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skorokhod2d.classify import (
    CRITICAL_BAND,
    Classification,
    GeneralMatrix2,
    ReflectionMatrix2,
    Regime,
    classify,
    classify_regime,
    diagonal_rescale,
    is_completely_s,
    normalize,
    spectral_radius_abs_q,
)
from skorokhod2d.dyadic import Dyadic
from skorokhod2d.errors import InvalidMatrixError, UsageError


def R(a1, a2):
    return ReflectionMatrix2(a1, a2)


def test_normalize_examples():
    M = GeneralMatrix2(2, 1, -1, 4)
    S, diag = normalize(M)
    assert S.a1 == 0.25 and S.a2 == -0.5
    assert diag == (2, 4)


def test_normalize_rejects_bad_diagonal():
    with pytest.raises(InvalidMatrixError):
        normalize(GeneralMatrix2(0, 1, 1, 1))
    with pytest.raises(InvalidMatrixError):
        normalize(GeneralMatrix2(1, 1, 1, -2))


def test_normalize_exact_stays_exact():
    M = GeneralMatrix2(Dyadic(2), Dyadic(1), Dyadic(-1), Dyadic(4))
    S, _ = normalize(M)
    assert classify_regime(S) == Regime.Case1_UniqueContraction


def test_completely_s_quadrants():
    assert is_completely_s(R(Dyadic(-1, -1), Dyadic(1, -1)))
    assert is_completely_s(R(Dyadic(2), Dyadic(2)))
    assert is_completely_s(R(Dyadic(-1, -1), Dyadic(-1, -1)))
    assert not is_completely_s(R(Dyadic(-1), Dyadic(-2)))
    assert not is_completely_s(R(Dyadic(-1), Dyadic(-1)))


REGIME_TABLE = [
    (Dyadic(-1, -1), Dyadic(1, -1), Regime.Case1_UniqueContraction, 0.5),
    (Dyadic(-1), Dyadic(1), Regime.Case2_UniqueCritical, 1.0),
    (Dyadic(1), Dyadic(1), Regime.Case3_CriticalPositive, 1.0),
    (Dyadic(-2), Dyadic(1), Regime.Case4_NonUniqueOpposite, math.sqrt(2)),
    (Dyadic(2), Dyadic(1), Regime.Case5_NonUniquePositive, math.sqrt(2)),
    (Dyadic(-1), Dyadic(-2), Regime.NotCompletelyS, math.sqrt(2)),
]


@pytest.mark.parametrize("a1,a2,regime,radius", REGIME_TABLE)
def test_regime_table(a1, a2, regime, radius):
    m = R(a1, a2)
    assert classify_regime(m) == regime
    rad = spectral_radius_abs_q(m)
    assert float(rad.value) == pytest.approx(radius, abs=1e-12)


def test_radius_exactness_flag():
    assert spectral_radius_abs_q(R(Dyadic(-1, -1), Dyadic(1, -1))).exact
    assert spectral_radius_abs_q(R(Dyadic(-1, -1), Dyadic(1, -1))).value == Dyadic(1, -1)
    assert not spectral_radius_abs_q(R(Dyadic(-2), Dyadic(1))).exact


def test_exact_criticality_no_caveat():
    c = classify(R(Dyadic(-1), Dyadic(1)))
    assert c.regime == Regime.Case2_UniqueCritical
    assert not c.critical_caveat


def test_float_critical_band():
    # well inside the band: treated as critical, caveat raised
    eps = CRITICAL_BAND / 4
    c = classify(R(-(1.0 + eps), 1.0))
    assert c.regime == Regime.Case2_UniqueCritical
    assert c.critical_caveat
    # outside the band: supercritical, no caveat
    c2 = classify(R(-1.001, 1.0))
    assert c2.regime == Regime.Case4_NonUniqueOpposite
    assert not c2.critical_caveat


def test_exact_near_one_not_banded():
    # exact arithmetic resolves products arbitrarily close to 1
    a1 = -(Dyadic(1) + Dyadic(1, -50))
    c = classify(R(a1, Dyadic(1)))
    assert c.regime == Regime.Case4_NonUniqueOpposite
    assert not c.critical_caveat


def test_classification_record_fields():
    c = classify(R(Dyadic(-2), Dyadic(1)))
    assert isinstance(c, Classification)
    assert c.completely_s
    assert c.uniqueness_note == "non-unique"


def test_rescale_matrix_only():
    S, none = diagonal_rescale(R(Dyadic(-2), Dyadic(1)), Dyadic(4))
    assert none is None
    assert S.a1 == -8 and S.a2 == Dyadic(1, -2)
    assert classify_regime(S) == Regime.Case4_NonUniqueOpposite


def test_rescale_requires_positive_constant():
    with pytest.raises(UsageError):
        diagonal_rescale(R(Dyadic(-2), Dyadic(1)), Dyadic(0))
    with pytest.raises(UsageError):
        diagonal_rescale(R(Dyadic(-2), Dyadic(1)), -1)


signed = st.one_of(
    st.builds(Dyadic, st.integers(min_value=-16, max_value=16).filter(bool),
              st.integers(min_value=-4, max_value=2)),
)
pos_pow2 = st.builds(lambda e: Dyadic(1, e), st.integers(min_value=-6, max_value=6))


@given(signed, signed, pos_pow2)
def test_rescale_preserves_regime(a1, a2, C):
    before = classify_regime(R(a1, a2))
    S, _ = diagonal_rescale(R(a1, a2), C)
    assert classify_regime(S) == before


@given(signed, signed)
def test_radius_matches_definition(a1, a2):
    rad = spectral_radius_abs_q(R(a1, a2))
    expected = math.sqrt(abs(float(a1) * float(a2)))
    assert float(rad.value) == pytest.approx(expected, rel=1e-12)


def test_radius_of_a_non_dyadic_radicand_is_a_flagged_float():
    # sqrt(1/9) exists, but 1/9 is not dyadic: the exact route refuses it
    rad = spectral_radius_abs_q(R(Fraction(1, 3), Fraction(1, 3)))
    assert not rad.exact
    assert rad.value == pytest.approx(1 / 3, rel=1e-15)
