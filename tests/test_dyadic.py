import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skorokhod2d.dyadic import Dyadic, DyadicArray, parse_exact, to_dyadic
from skorokhod2d.errors import ExactnessError


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-60, max_value=60),
)


def test_canonical_form():
    assert Dyadic(4, 0) == Dyadic(1, 2)
    assert Dyadic(4, 0).mantissa == 1 and Dyadic(4, 0).exp2 == 2
    assert Dyadic(0, 17).exp2 == 0
    assert Dyadic(-6, -1).mantissa == -3


def test_arithmetic_examples():
    half = Dyadic(1, -1)
    assert half + half == 1
    assert half * half == Dyadic(1, -2)
    assert -half == Dyadic(-1, -1)
    assert half - 1 == Dyadic(-1, -1)
    assert 3 * half == Dyadic(3, -1)
    assert min(half, Dyadic(1, -2)) == Dyadic(1, -2)


def test_division_exact_or_error():
    assert Dyadic(3) / Dyadic(1, -1) == 6
    assert Dyadic(1) / Dyadic(4) == Dyadic(1, -2)
    with pytest.raises(ExactnessError):
        Dyadic(1) / Dyadic(3)
    with pytest.raises(ZeroDivisionError):
        Dyadic(1) / Dyadic(0)


def test_comparisons_mixed_types():
    assert Dyadic(1, -1) < 1
    assert Dyadic(1, -1) == 0.5
    assert Dyadic(1, -1) <= Fraction(1, 2)
    assert Dyadic(-3) < -2.5


def test_sqrt_exact():
    assert Dyadic(1, -2).sqrt_exact() == Dyadic(1, -1)
    assert Dyadic(2).sqrt_exact() is None
    assert Dyadic(9, 2).sqrt_exact() == 6
    assert Dyadic(0).sqrt_exact() == 0


def test_decimal_string():
    assert Dyadic(1, -1).to_decimal_string() == "0.5"
    assert Dyadic(-3, -2).to_decimal_string() == "-0.75"
    assert Dyadic(5, 1).to_decimal_string() == "10"
    assert parse_exact("-0.75") == Dyadic(-3, -2)
    with pytest.raises(ExactnessError):
        parse_exact("1/3")


def test_float_round_trip():
    assert Dyadic.from_float(0.1) == to_dyadic(0.1)
    assert float(Dyadic.from_float(0.1)) == 0.1


@given(dyadics, dyadics)
def test_add_mul_exact_vs_fraction(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()


@given(dyadics)
def test_decimal_string_round_trip(a):
    assert parse_exact(a.to_decimal_string()) == a


@given(dyadics, dyadics)
def test_order_consistent_with_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())


@pytest.mark.parametrize("x", [Dyadic(0), Dyadic(1), Dyadic(-3, -2), Dyadic(1, 2000)])
def test_comparisons_with_non_finite_floats(x):
    # a dyadic is finite: unequal to ±inf and NaN, between -inf and inf, and
    # unordered against NaN, as a float is
    inf, nan = float("inf"), float("nan")
    for y in (inf, -inf, nan):
        assert not x == y and x != y
    assert x < inf and x <= inf and not x > inf and not x >= inf
    assert x > -inf and x >= -inf and not x < -inf and not x <= -inf
    assert not (x < nan or x <= nan or x > nan or x >= nan)
    assert -inf < x < inf and not nan < x and not nan >= x
    # arrays follow the scalar rule elementwise, either side of the operator;
    # arithmetic with a non-finite float still refuses
    a = DyadicArray.of([[x, -x], [0, x + 1]])
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        for y in (inf, -inf, nan):
            for got, want in ((op(a, y), [[op(v, y) for v in r] for r in a.tolist()]),
                              (op(y, a), [[op(y, v) for v in r] for r in a.tolist()])):
                assert got.dtype == bool and got.tolist() == want
    for y in (inf, -inf, nan):
        for operand in (x, a):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(ExactnessError):
                    op(operand, y)
                with pytest.raises(ExactnessError):
                    op(y, operand)
