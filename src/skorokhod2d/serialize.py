"""JSON encodings for paths, triples and solver output.

Exact scalars serialize as {"m": "<decimal-integer-string>", "e": <int>}
meaning m * 2^e, in the canonical form of `Dyadic`; float scalars are plain
JSON numbers. The round trip is bit-identical in exact mode.

Decoding has one rule for a scalar, `scalar_from_json`: an exact scalar is a
dict with exactly "m" and "e", each an int (not a bool) or a decimal string,
so a float or bool part is refused, never truncated; a float scalar is
whatever `float` reads except a dict. `path_from_json` checks that each entry
of "values" is a list of two, the same way in both modes, and reads each
field with `_scalars`: in bulk when every scalar is well formed (`np.fromiter`
for floats; the "m" and "e" parts through `int` for exact ones), else scalar
by scalar with the rule. A malformed document raises UsageError naming the
missing or malformed key, or the first malformed scalar.

Exact values have one representable range, `_check_range`, which the encoder
and the decoder both apply: a mantissa has at most the interpreter's
int-string conversion digits (`sys.get_int_max_str_digits()`), and an array's
length times the spread of its exponents is at most `MAX_EXACT_BITS`. So the
encoder refuses, with the UsageError the decoder would raise, exactly what the
decoder could not read back.

The builders of whole documents (`path_to_json`, `solution_to_json`,
`triple_to_json`, `bundle_to_json`) run with Python's cyclic garbage
collector paused (`_gc_paused`), and so does the CLI's `json.loads` of a
document. A float document holds one small list per point pair, so building
or reading a 10^5-point path allocates enough containers to trigger several
full collections, each of which scans every live container, though lists of
floats can never form a reference cycle. The collector comes back on (if it
was on) when the builder returns or raises; nothing here collects, freezes
or changes a threshold.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
from itertools import chain, compress
from operator import itemgetter
from typing import Any

import numpy as np

from .classify import ReflectionMatrix2
from .counterexample import CounterexampleBundle
from .dyadic import Dyadic, DyadicArray, to_dyadic
from .errors import UsageError
from .paths import EXACT, FLOAT, MonotoneDecomp, PLPath2
from .verifier import SolutionTriple

MAX_EXACT_BITS = 1 << 28
"""Bound on the decoded size of one exact array: its length times the spread
of its nonzero scalars' exponents. The array holds its mantissas on its lowest
exponent, so a document of a few scalars on far-apart exponents would
otherwise decode into huge ints. A depth-1600 spiral bundle needs at most
5.2e6 bits per array, and a spiral with a1 = -2 reaches the bound at depth
16,384 (its times array: 16,385 scalars on exponents 0 to -16,384). Part of
the range of `_check_range`, so the encoder refuses such an array too."""


def _check_range(m: list, e: list) -> None:
    """Refuse, with a UsageError naming the bound, exact values m[i] * 2^e[i]
    outside the range that the encoder writes and the decoder reads back."""
    _check_digits(_digits(max(m, key=abs, default=0)))
    live = list(compress(e, m))  # the exponents of nonzero scalars
    if live and len(m) * (max(live) - min(live)) > MAX_EXACT_BITS:
        raise UsageError(f"exact array too wide: {len(m)} scalars with exponents from "
                         f"{min(live)} to {max(live)} need over {MAX_EXACT_BITS} bits")


def _check_digits(digits: int) -> None:
    """Refuse a mantissa of more decimal digits than the interpreter converts
    between int and str; the limit is read, never set."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise UsageError(f"exact mantissa of {digits} digits: over the interpreter's "
                         f"limit of {limit} digits for int-string conversion")


def _digits(x: int) -> int:
    """Decimal digits of |x|, counted without converting x to a string."""
    x = abs(x)
    d = max(1, int((x.bit_length() - 1) * math.log10(2)))  # at most the count
    while x >= 10**d:
        d += 1
    return d


def _gc_paused(build):
    """`build` run with the cyclic garbage collector disabled, re-enabled
    afterwards only if it was enabled before, so nested builders and a
    caller's own `gc.disable()` keep their state."""
    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def scalar_to_json(x, mode: str) -> Any:
    if mode == EXACT:
        d = to_dyadic(x)
        _check_range([d.mantissa], [d.exp2])
        return {"m": str(d.mantissa), "e": d.exp2}
    return float(x)


def _field(obj: Any, key: str, kind: type | None = None) -> Any:
    """obj[key], of exactly the type `kind` if one is given (so a bool is not
    an int)."""
    if not isinstance(obj, dict) or key not in obj:
        raise UsageError(f"missing key {key!r}")
    if kind is not None and type(obj[key]) is not kind:
        raise UsageError(f"malformed {key!r}: {obj[key]!r}")
    return obj[key]


def scalar_from_json(obj: Any, mode: str):
    """The one rule for a JSON scalar. Exact: a dict with exactly "m" and "e",
    each an int (not a bool) or a decimal string, read as a `Dyadic`. Float:
    whatever `float` reads, except a dict. Else a UsageError names it."""
    if mode == EXACT:
        if not (isinstance(obj, dict) and set(obj) == {"m", "e"}
                and {type(obj["m"]), type(obj["e"])} <= {int, str}):
            raise UsageError(f"malformed exact scalar: {obj!r}")
    elif isinstance(obj, dict):
        raise UsageError("exact scalar found in a float-mode document")
    try:
        return Dyadic(int(obj["m"]), int(obj["e"])) if mode == EXACT else float(obj)
    except (TypeError, ValueError, OverflowError):  # an int beyond the double range
        text = obj["m"].lstrip("-") if mode == EXACT and isinstance(obj["m"], str) else ""
        if text.isdecimal():  # a mantissa too long to convert is named, not echoed
            _check_digits(len(text))
        raise UsageError(f"malformed {mode} scalar: {obj!r}") from None


@_gc_paused
def path_to_json(p: PLPath2) -> dict:
    return {"mode": p.mode, "times": _encode(p.t), "values": _encode(p.x)}


def _encode(a) -> list:
    """Nested lists of JSON scalars; float arrays are already JSON numbers."""
    if not isinstance(a, DyadicArray):
        return a.tolist()
    m, e = a.to_parts()
    _check_range(m, e)
    flat = [{"m": str(x), "e": k} for x, k in zip(m, e)]
    return flat if a.ndim == 1 else list(map(list, zip(*[iter(flat)] * a.shape[1])))


def path_from_json(obj: dict) -> PLPath2:
    mode = _field(obj, "mode")
    if mode not in (EXACT, FLOAT):
        raise UsageError(f"unknown path mode: {mode!r}")
    values = _field(obj, "values", list)
    if set(map(type, values)) - {list} or set(map(len, values)) - {2}:
        raise UsageError("malformed 'values': each entry must be a pair")
    times = _scalars(_field(obj, "times", list), mode)
    return PLPath2(times, _scalars(list(chain.from_iterable(values)), mode).reshape(-1, 2), mode)


def _scalars(flat: list, mode: str):
    """The JSON scalars of one field as an array: float64, or a DyadicArray
    straight from the mantissas and exponents. Read in bulk where every scalar
    is well formed (floats by `np.fromiter`, which reads a null as nan, so a
    nan sends the field to the rule), else one by one with `scalar_from_json`,
    which names the first malformed scalar."""
    if mode == FLOAT:
        try:
            a = np.fromiter(flat, float, len(flat))
            if not np.isnan(a).any():
                return a
        except (TypeError, ValueError, OverflowError):
            pass
        return np.array([scalar_from_json(x, mode) for x in flat], dtype=float)
    parts = None
    try:
        ms, es = (list(map(itemgetter(k), flat)) for k in "me")
        kinds = set(map(type, ms)) | set(map(type, es))
        if set(map(type, flat)) <= {dict} and set(map(len, flat)) <= {2} and kinds <= {int, str}:
            parts = list(map(int, ms)), list(map(int, es))
    except (TypeError, ValueError, KeyError):  # a malformed scalar, or a mantissa too long
        pass
    if parts is None:
        ds = [scalar_from_json(x, mode) for x in flat]
        parts = [d.mantissa for d in ds], [d.exp2 for d in ds]
    _check_range(*parts)
    return DyadicArray.from_parts(*parts)


def matrix_to_json(R: ReflectionMatrix2, mode: str) -> dict:
    return {"a1": scalar_to_json(R.a1, mode), "a2": scalar_to_json(R.a2, mode)}


def matrix_from_json(obj: dict, mode: str) -> ReflectionMatrix2:
    return ReflectionMatrix2(
        scalar_from_json(_field(obj, "a1"), mode), scalar_from_json(_field(obj, "a2"), mode)
    )


@_gc_paused
def triple_to_json(t: SolutionTriple) -> dict:
    mode = t.f.mode
    out = {
        "matrix": matrix_to_json(t.R, mode),
        "f": path_to_json(t.f),
        "g": path_to_json(t.g),
        "m": path_to_json(t.m),
    }
    if t.tail_bound is not None:
        out["tail_bound"] = scalar_to_json(t.tail_bound, mode)
    return out


def triple_from_json(obj: dict) -> SolutionTriple:
    f = path_from_json(_field(obj, "f"))
    tail = obj.get("tail_bound")
    return SolutionTriple(
        R=matrix_from_json(_field(obj, "matrix"), f.mode),
        f=f,
        g=path_from_json(_field(obj, "g")),
        m=path_from_json(_field(obj, "m")),
        tail_bound=None if tail is None else scalar_from_json(tail, f.mode),
    )


@_gc_paused
def solution_to_json(g: PLPath2, m: PLPath2, iterations: int, converged: bool, residual: float) -> dict:
    return {
        "g": path_to_json(g),
        "m": path_to_json(m),
        "iterations": iterations,
        "converged": converged,
        "residual": residual,
    }


@_gc_paused
def bundle_to_json(b: CounterexampleBundle) -> dict:
    mode = b.u.mode
    return {
        "matrix": matrix_to_json(b.R, mode),
        "depth": b.depth,
        "u": path_to_json(b.u),
        "m": path_to_json(b.decomp.m),
        "mbar": path_to_json(b.decomp.mbar),
        "f": path_to_json(b.f),
        "g": path_to_json(b.g),
        "gbar": path_to_json(b.gbar),
        "tail_bound": scalar_to_json(b.tail_bound, mode),
        "rho": scalar_to_json(b.rho, mode),
    }


def bundle_from_json(obj: dict) -> CounterexampleBundle:
    u = path_from_json(_field(obj, "u"))
    mode = u.mode
    return CounterexampleBundle(
        R=matrix_from_json(_field(obj, "matrix"), mode),
        u=u,
        decomp=MonotoneDecomp(
            path_from_json(_field(obj, "m")), path_from_json(_field(obj, "mbar"))
        ),
        f=path_from_json(_field(obj, "f")),
        g=path_from_json(_field(obj, "g")),
        gbar=path_from_json(_field(obj, "gbar")),
        depth=_field(obj, "depth", int),
        tail_bound=scalar_from_json(_field(obj, "tail_bound"), mode),
        rho=scalar_from_json(_field(obj, "rho"), mode),
    )
