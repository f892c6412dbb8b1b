"""Exact dyadic rational arithmetic.

A dyadic number is mantissa * 2**exp2 with an arbitrary-precision integer
mantissa. Canonical form keeps the mantissa odd (or zero with exp2 = 0), so
equality is structural. Addition, multiplication, negation and comparisons
are exact; division is supported only when the quotient is again dyadic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ExactnessError

NumberLike = Union["Dyadic", int, float, Fraction]


class Dyadic:
    __slots__ = ("mantissa", "exp2")

    def __init__(self, mantissa: int, exp2: int = 0):
        mantissa = int(mantissa)
        exp2 = int(exp2)
        if mantissa == 0:
            exp2 = 0
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            if shift:
                mantissa >>= shift
                exp2 += shift
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "exp2", exp2)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "Dyadic":
        den = fr.denominator
        if den & (den - 1):
            raise ExactnessError(f"{fr} is not a dyadic rational")
        return cls(fr.numerator, -(den.bit_length() - 1))

    @classmethod
    def from_float(cls, x: float) -> "Dyadic":
        if not math.isfinite(x):
            raise ExactnessError(f"cannot represent {x!r} exactly")
        num, den = float(x).as_integer_ratio()
        return cls(num, -(den.bit_length() - 1))

    # --- conversions ------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.exp2 >= 0:
            return Fraction(self.mantissa << self.exp2)
        return Fraction(self.mantissa, 1 << -self.exp2)

    def __float__(self) -> float:
        return math.ldexp(self.mantissa, self.exp2) if abs(self.mantissa) < 2**52 \
            else float(self.as_fraction())

    def __int__(self) -> int:
        if self.exp2 < 0:
            raise ExactnessError(f"{self!r} is not an integer")
        return self.mantissa << self.exp2

    def to_decimal_string(self) -> str:
        """Exact decimal representation (dyadics have finite decimal expansions)."""
        if self.exp2 >= 0:
            return str(self.mantissa << self.exp2)
        k = -self.exp2
        scaled = self.mantissa * 5**k  # value = scaled / 10**k
        sign = "-" if scaled < 0 else ""
        digits = str(abs(scaled)).rjust(k + 1, "0")
        return f"{sign}{digits[:-k]}.{digits[-k:]}"

    # --- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x: NumberLike) -> "Dyadic":
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a number here")
        if isinstance(x, int):
            return Dyadic(x)
        if isinstance(x, float):
            return Dyadic.from_float(x)
        if isinstance(x, Fraction):
            return Dyadic.from_fraction(x)
        return NotImplemented  # type: ignore[return-value]

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = min(self.exp2, other.exp2)
        return self.mantissa << (self.exp2 - e), other.mantissa << (other.exp2 - e), e

    def __add__(self, other: NumberLike):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ma, mb, e = self._aligned(o)
        return Dyadic(ma + mb, e)

    __radd__ = __add__

    def __sub__(self, other: NumberLike):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ma, mb, e = self._aligned(o)
        return Dyadic(ma - mb, e)

    def __rsub__(self, other: NumberLike):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other: NumberLike):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dyadic(self.mantissa * o.mantissa, self.exp2 + o.exp2)

    __rmul__ = __mul__

    def __truediv__(self, other: NumberLike):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.mantissa == 0:
            raise ZeroDivisionError("dyadic division by zero")
        q, r = divmod(self.mantissa, o.mantissa)
        if r:
            raise ExactnessError(f"{self!r} / {o!r} is not dyadic")
        return Dyadic(q, self.exp2 - o.exp2)

    def __rtruediv__(self, other: NumberLike):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mantissa, self.exp2)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.mantissa), self.exp2)

    def __pow__(self, n: int) -> "Dyadic":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return Dyadic(1) / self**-n
        return Dyadic(self.mantissa**n, self.exp2 * n)

    def sqrt_exact(self) -> "Dyadic | None":
        """Exact square root, or None when the root is not dyadic."""
        if self.mantissa < 0:
            raise ExactnessError("square root of a negative dyadic")
        if self.mantissa == 0:
            return Dyadic(0)
        if self.exp2 % 2:
            return None
        r = math.isqrt(self.mantissa)
        if r * r != self.mantissa:
            return None
        return Dyadic(r, self.exp2 // 2)

    # --- comparisons ------------------------------------------------------

    def _cmp(self, other: NumberLike) -> int | None:
        o = self._coerce(other)
        if o is NotImplemented:
            return None
        ma, mb, _ = self._aligned(o)
        return (ma > mb) - (ma < mb)

    def __eq__(self, other) -> bool:
        if isinstance(other, Dyadic):  # canonical form: equal values, equal fields
            return self.mantissa == other.mantissa and self.exp2 == other.exp2
        if isinstance(other, (int, Fraction, float)):
            c = self._cmp(other)
            return c == 0 if c is not None else NotImplemented
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return c < 0 if c is not None else NotImplemented

    def __le__(self, other):
        c = self._cmp(other)
        return c <= 0 if c is not None else NotImplemented

    def __gt__(self, other):
        c = self._cmp(other)
        return c > 0 if c is not None else NotImplemented

    def __ge__(self, other):
        c = self._cmp(other)
        return c >= 0 if c is not None else NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __bool__(self) -> bool:
        return self.mantissa != 0

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}, {self.exp2})"

    def __str__(self) -> str:
        return self.to_decimal_string()


def to_dyadic(x: NumberLike) -> Dyadic:
    """Coerce an int, float, Fraction or Dyadic to a Dyadic, exactly."""
    d = Dyadic._coerce(x)
    if d is NotImplemented:
        raise TypeError(f"cannot convert {type(x).__name__} to Dyadic")
    return d


def parse_exact(text: str) -> Dyadic:
    """Parse a decimal or integer-ratio string ('0.75', '-3', '3/4') exactly."""
    return Dyadic.from_fraction(Fraction(text))
