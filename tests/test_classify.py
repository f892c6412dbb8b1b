import math
from fractions import Fraction

import numpy as np
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
from skorokhod2d.counterexample import build_counterexample
from skorokhod2d.dyadic import Dyadic
from skorokhod2d.errors import ExactnessError, InvalidMatrixError, UsageError
from skorokhod2d.paths import EXACT, PLPath2
from skorokhod2d.verifier import SolutionTriple, verify


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
    # Python and numpy integers are exact entries, as Dyadic and Fraction are
    for a1, a2 in [(Dyadic(-1), Dyadic(1)), (-1, 1), (np.int64(-1), np.int64(1)),
                   (Fraction(-1), np.int32(1))]:
        c = classify(R(a1, a2))
        assert c.regime == Regime.Case2_UniqueCritical
        assert not c.critical_caveat
        assert c.radius_exact and c.radius == 1.0
        assert type(c.completely_s) is bool


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
    for entries in ((np.int64(-2), np.int64(1)), (np.float64(-2), np.float64(1))):
        c = classify(R(*entries))
        assert c.regime == Regime.Case4_NonUniqueOpposite
        assert type(c.completely_s) is bool and c.completely_s


def test_rescale_matrix_only():
    S, none = diagonal_rescale(R(Dyadic(-2), Dyadic(1)), Dyadic(4))
    assert none is None
    assert S.a1 == -8 and S.a2 == Dyadic(1, -2)
    assert classify_regime(S) == Regime.Case4_NonUniqueOpposite
    # S is exact only when a1, a2 and C all are, as for the product a1*a2
    S, _ = diagonal_rescale(R(Dyadic(-1, -1), 0.5), Dyadic(2))
    assert (S.a1, S.a2) == (-1.0, 0.25) and type(S.a1) is float and type(S.a2) is float
    S, _ = diagonal_rescale(R(np.int64(-2), Fraction(1, 3)), np.int64(4))
    assert (S.a1, S.a2) == (Fraction(-8), Fraction(1, 12))
    # a triple moves with the same S, exact when the triple is
    tr = build_counterexample(Dyadic(-2), depth=8).triple()
    for C in (Dyadic(1, 3), 8, Dyadic(1, -2), Fraction(1, 4), 0.5, np.int64(2)):
        T, moved = diagonal_rescale(tr.R, C, tr)
        assert T == diagonal_rescale(tr.R, C)[0] and type(T.a1) is Fraction
        assert moved.R == T and moved.f.mode == EXACT
    # an exact triple needs a dyadic 1/C, though the matrix alone takes any C
    for C in (3, 2**0.3, Fraction(1, 3)):
        assert diagonal_rescale(tr.R, C)[1] is None
        with pytest.raises(ExactnessError):
            diagonal_rescale(tr.R, C, tr)
    # and a float C does not round its S: a2 is wider than a double
    w = Dyadic(2**60 + 1, -60)
    wide = SolutionTriple(R(Dyadic(0), w), PLPath2([0, 1], [(0, 0), (-1, 0)], EXACT),
                          PLPath2([0, 1], [(0, 0), (0, w)], EXACT),
                          PLPath2([0, 1], [(0, 0), (1, 0)], EXACT))
    T, moved = diagonal_rescale(wide.R, 0.5, wide)
    assert T.a2 == Fraction(2**60 + 1, 2**59)
    assert verify(wide, 0).passed and verify(moved, 0).passed


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


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite, _finite)
def test_radius_keeps_the_bits_of_the_product_root(a1, a2):
    # where a1*a2 is a normal double the radius is math.sqrt of it, bit for
    # bit; elsewhere it is within a few ulps of the root of the exact product
    p = abs(a1 * a2)
    r = spectral_radius_abs_q(R(a1, a2))
    assert not r.exact
    if 2.0**-1022 <= p <= 1.7976931348623157e308:
        assert r.value == math.sqrt(p)
    elif a1 and a2:
        root = Fraction(r.value)
        eps = root * Fraction(2) ** -50 + Fraction(2) ** -1074  # relative, or one subnormal step
        assert (root - eps) ** 2 <= abs(Fraction(a1) * Fraction(a2)) <= (root + eps) ** 2
    else:
        assert r.value == 0


@given(st.integers(1, 2**70), st.integers(1, 2**70), st.integers(-1300, 1300))
def test_exact_radius_without_a_dyadic_root_is_the_nearest_scaled_root(n, d, k):
    # an exact product far outside the double range still has its root
    # taken; one past the largest double is refused by classify
    a1, a2 = Fraction(n, d), Fraction(2) ** (2 * k)
    root = math.sqrt(Fraction(n, d))
    try:
        want = math.ldexp(root, k)
    except OverflowError:
        with pytest.raises(UsageError, match="beyond the double range"):
            classify(R(a1, a2))
        return
    r = spectral_radius_abs_q(R(a1, a2))
    if not r.exact and math.ldexp(want, -k) == root:  # no rounding into the subnormals
        assert r.value == want
