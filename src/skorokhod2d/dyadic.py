"""Exact dyadic rational arithmetic.

A dyadic number is mantissa * 2**exp2 with an arbitrary-precision integer
mantissa. Addition, multiplication, negation and comparisons are exact;
division is supported only when the quotient is again dyadic.

`Dyadic` is the scalar. Its canonical form keeps the mantissa odd (or zero
with exp2 = 0), so equality is structural. `DyadicArray` holds an array of
dyadic numbers as one numpy object array of Python ints `m` and one exponent
`e` for the whole array, value m * 2**e.

There is one arithmetic for both. Each operation is a kernel on
(mantissa, exponent) parts, where a mantissa is a Python int or an object
array of them: two operands are first put on their lower exponent, one shift
per array, and quotients check exactness with one remainder by the odd part
of the divisor. `Dyadic`'s operators and comparisons, and `DyadicArray`'s
operators, ufuncs and numpy functions (`diff`, `cumsum`, `where`,
`searchsorted`, `sort`, ...) all call these kernels, so array work runs as
numpy loops over the ints, with no Python frame per scalar. A scalar result
is a `Dyadic`, an array result a `DyadicArray`. Comparisons, scalar or
array, follow one rule for ±inf and NaN: a dyadic number orders against them
as 0.0 does. Arithmetic with them raises ExactnessError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import ExactnessError

NumberLike = Union["Dyadic", int, np.integer, float, Fraction]


# --- the kernels: operands as (mantissa, exponent) parts ------------------------


def _common(*parts):
    """Mantissas (ints or int arrays) of (mantissa, exponent) operands on their
    lowest exponent; a zero scalar, exponent None, fits any exponent."""
    e = min((pe for _, pe in parts if pe is not None), default=0)
    return [pm if pe is None or pe == e else pm << (pe - e) for pm, pe in parts], e


def _parts(x):
    """(mantissa, exponent) of an array or scalar operand; exponent None for a
    zero scalar. None when x is not a dyadic operand."""
    if isinstance(x, DyadicArray):
        return x.m, x.e
    if isinstance(x, np.ndarray):
        return None
    d = Dyadic._coerce(x)
    if d is NotImplemented:
        return None
    return d.mantissa, d.exp2 if d.mantissa else None


def _wrap(m, e: int):
    """An array result as a DyadicArray, a scalar one as a Dyadic."""
    return DyadicArray(m, e) if isinstance(m, np.ndarray) else Dyadic(m, e)


def _on_parts(kernel):
    """An operation on dyadic operands (DyadicArrays, Dyadics or numbers) that
    runs kernel on their (mantissa, exponent) parts; NotImplemented for any
    other operand."""
    def apply(*xs):
        parts = [_parts(x) for x in xs]
        return NotImplemented if None in parts else kernel(*parts)

    return apply


def _reflected(op):
    return lambda self, other: op(other, self)


def _same_exponent(op):
    """An elementwise operation whose result keeps the operands' common exponent."""
    def apply(*parts):
        ms, e = _common(*parts)
        return _wrap(op(*ms), e)

    return _on_parts(apply)


def _nonfinite(x) -> bool:
    return isinstance(x, float) and not math.isfinite(x)


def _comparison(op):
    """An elementwise comparison of a dyadic operand with a number or another
    dyadic operand: a bool, or a bool array."""
    on_ints = _on_parts(lambda *parts: op(*_common(*parts)[0]))

    def compare(a, b):
        if not (_nonfinite(a) or _nonfinite(b)):
            return on_ints(a, b)
        # a finite number orders against ±inf and NaN as 0.0 does
        out = op(*(x if _nonfinite(x) else 0.0 for x in (a, b)))
        arrays = [x for x in (a, b) if isinstance(x, DyadicArray)]
        return np.full(arrays[0].shape, out) if arrays else out

    return compare


@_on_parts
def _multiply(a, b):
    (ma, ea), (mb, eb) = a, b
    return _wrap(ma * mb, (ea or 0) + (eb or 0))


@_on_parts
def _divide(a, b):
    """a / b, exact or ExactnessError: b = odd * low with low a power of two,
    and the result exponent drops by the largest low of the array."""
    (na, ea), (nb, eb) = a, b
    if eb is None or not np.all(nb != 0):
        raise ZeroDivisionError("dyadic division by zero")
    low = nb & -nb
    big = low.max(initial=1) if isinstance(low, np.ndarray) else low
    odd = nb // low
    if not (isinstance(odd, int) and odd == 1):
        rem = na % odd
        bad = np.flatnonzero(rem != 0)
        if len(bad):
            n, d = (np.broadcast_to(np.asarray(x, dtype=object), np.shape(rem)).flat[bad[0]]
                    for x in (na, nb))
            raise ExactnessError(f"{Dyadic(n, ea or 0)!r} / {Dyadic(d, eb)!r} is not dyadic")
        na = na // odd
    if isinstance(low, np.ndarray):
        na = na * (big // low)
    return _wrap(na, (ea or 0) - eb - (big.bit_length() - 1))


# operator functions act exactly on Python ints and on object arrays alike; a
# ufunc would first cast two Python ints to int64, which wraps or overflows
_add = _same_exponent(operator.add)
_subtract = _same_exponent(operator.sub)
_lt, _le, _gt, _ge, _eq, _ne = map(_comparison, (
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne))


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
        if isinstance(x, (int, np.integer)):
            return Dyadic(operator.index(x))
        if isinstance(x, float):
            return Dyadic.from_float(x)
        if isinstance(x, Fraction):
            return Dyadic.from_fraction(x)
        return NotImplemented  # type: ignore[return-value]

    __add__ = __radd__ = _add
    __sub__ = _subtract
    __rsub__ = _reflected(_subtract)
    __mul__ = __rmul__ = _multiply
    __truediv__ = _divide
    __rtruediv__ = _reflected(_divide)

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

    def __eq__(self, other) -> bool:
        if isinstance(other, Dyadic):  # canonical form: equal values, equal fields
            return self.mantissa == other.mantissa and self.exp2 == other.exp2
        if isinstance(other, (int, Fraction, float)):
            return _eq(self, other)
        return NotImplemented

    __lt__, __le__, __gt__, __ge__ = _lt, _le, _gt, _ge

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


# --- arrays -------------------------------------------------------------------

_UFUNCS = {
    np.add: _add,
    np.subtract: _subtract,
    np.maximum: _same_exponent(np.maximum),  # only arrays reach these two
    np.minimum: _same_exponent(np.minimum),
    np.less: _lt,
    np.less_equal: _le,
    np.greater: _gt,
    np.greater_equal: _ge,
    np.equal: _eq,
    np.not_equal: _ne,
    np.negative: _same_exponent(operator.neg),
    np.absolute: _same_exponent(operator.abs),
    np.multiply: _multiply,
    np.true_divide: _divide,
}


def _along(func):
    """A numpy function that keeps the exponent: diff, cumsum, sort, max, ..."""
    return lambda a, *args, **kwargs: _wrap(func(a.m, *args, **kwargs), a.e)


def _cumprod(a):
    """Running products of a 1-D array; the j-th has exponent (j + 1) * e."""
    return DyadicArray.from_parts(np.cumprod(a.m), a.e * np.arange(1, len(a) + 1))


def _sum(a, initial=None):
    total = Dyadic(np.sum(a.m), a.e)
    return total if initial is None else total + initial


def _joined(func):
    """concatenate and column_stack, on the operands' lowest exponent."""
    def apply(arrays, *args, **kwargs):
        ms, e = _common(*map(_parts, arrays))
        return DyadicArray(func(ms, *args, **kwargs), e)

    return apply


def _where(cond, a, b):
    (ma, mb), e = _common(_parts(a), _parts(b))
    return DyadicArray(np.where(cond, ma, mb), e)


def _searchsorted(a, v, side="left"):
    (ma, mv), _ = _common(_parts(a), _parts(v))
    return np.searchsorted(ma, mv, side=side)


_FUNCTIONS = {
    np.diff: _along(np.diff),
    np.cumsum: _along(np.cumsum),
    np.cumprod: _cumprod,
    np.sort: _along(np.sort),
    np.max: _along(np.max),
    np.min: _along(np.min),
    np.sum: _sum,
    np.concatenate: _joined(np.concatenate),
    np.column_stack: _joined(np.column_stack),
    np.where: _where,
    np.searchsorted: _searchsorted,
}


class DyadicArray(np.lib.mixins.NDArrayOperatorsMixin):
    """Dyadic numbers m * 2**e: `m` a numpy object array of Python ints, `e`
    one exponent for the whole array.

    Supports the operators, indexing, and the numpy ufuncs and functions in
    `_UFUNCS` and `_FUNCTIONS`; anything else raises TypeError rather than
    run per scalar. Operands may be DyadicArrays or numbers.
    """

    __slots__ = ("m", "e")

    def __init__(self, m, e: int = 0):
        m = np.asarray(m)
        self.m = m if m.dtype == object else m.astype(object)  # never int64
        self.e = e

    @classmethod
    def of(cls, a) -> "DyadicArray":
        """Exact array of a's numbers: a DyadicArray as it is, else an int array
        or nested sequences of int, float, Fraction or Dyadic."""
        if isinstance(a, DyadicArray):
            return a
        a = np.array(a, dtype=object)  # the ints of an int64 array become Python ints
        ds = [to_dyadic(v) for v in a.ravel().tolist()]
        return cls.from_parts([d.mantissa for d in ds], [d.exp2 for d in ds]).reshape(a.shape)

    @classmethod
    def from_parts(cls, mantissas, exponents) -> "DyadicArray":
        """The flat array of the values mantissas[i] * 2**exponents[i]."""
        m = np.array(mantissas, dtype=object)
        e = np.array(exponents, dtype=object)
        nonzero = m != 0
        low = np.min(e[nonzero]) if nonzero.any() else 0
        return cls(m << np.where(nonzero, e - low, 0), low)

    def to_parts(self) -> tuple[list, list]:
        """The flat mantissas and exponents, each pair in `Dyadic`'s canonical
        form (odd mantissa, or 0 with exponent 0): the inverse of `from_parts`."""
        e = self.e
        parts = [(v >> (k := (v & -v).bit_length() - 1), e + k) if v else (0, 0)
                 for v in self.m.ravel().tolist()]
        return [m for m, _ in parts], [k for _, k in parts]

    def frozen(self) -> "DyadicArray":
        """Self if read-only; else a read-only copy on the largest shared exponent."""
        if not self.m.flags.writeable:
            return self
        low = np.bitwise_or.reduce(self.m, axis=None) if self.m.size else 0
        k = (low & -low).bit_length() - 1
        m, e = (self.m >> k, self.e + k) if k > 0 else (self.m.copy(), self.e if low else 0)
        m.flags.writeable = False
        return DyadicArray(m, e)

    # --- numpy protocol -----------------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        apply = _UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or apply is None:
            return NotImplemented
        return apply(*inputs)

    def __array_function__(self, func, types, args, kwargs):
        apply = _FUNCTIONS.get(func)
        return NotImplemented if apply is None else apply(*args, **kwargs)

    # --- array interface ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.m.shape

    @property
    def ndim(self) -> int:
        return self.m.ndim

    @property
    def T(self) -> "DyadicArray":
        return DyadicArray(self.m.T, self.e)

    def __len__(self) -> int:
        return len(self.m)

    def reshape(self, *shape) -> "DyadicArray":
        return DyadicArray(self.m.reshape(*shape), self.e)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        return _wrap(self.m[key], self.e)

    def __setitem__(self, key, value) -> None:
        if not self.m.flags.writeable:  # a path's arrays, which paths may share
            raise ValueError("assignment destination is read-only")
        (m, v), self.e = _common((self.m, self.e), _parts(value))
        self.m = m
        m[key] = v

    def tolist(self) -> list:
        """Nested lists of Dyadic, as ndarray.tolist() nests."""
        flat = [Dyadic(v, self.e) for v in self.m.ravel().tolist()]
        return np.array(flat, dtype=object).reshape(self.shape).tolist()

    def __repr__(self) -> str:
        return f"DyadicArray({self.m!r}, {self.e})"
