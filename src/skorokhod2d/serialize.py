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

A document's paths that share a time grid have it encoded and decoded once.
The builders encode each distinct time array once per document and put that
one list into every path on the array, so `json.dumps` writes the same bytes
as for separate copies. The paths of a built document thus share their "times"
list, down to its scalar dicts: edit a copy, not the list in place, or every
path on that grid changes. The readers decode a path's "times" once and hand
the read-only grid to a later path of its mode whose list compares equal and
would decode to the same values; this holds for a document parsed from a file
as much as for one a builder returned. Every path still goes through
`PLPath2`'s checks, and a decoded bundle's six paths, or a solution's g and m,
share one read-only time array, as built ones do.

Exact values have one representable range, `_check_range`, which the encoder
and the decoder both apply: a mantissa has at most the interpreter's
int-string conversion digits (`sys.get_int_max_str_digits()`), and an array's
length times the spread of its exponents is at most `MAX_EXACT_BITS`. So the
encoder refuses, with the UsageError the decoder would raise, exactly what the
decoder could not read back.

The builders of whole documents (`path_to_json`, `solution_to_json`,
`triple_to_json`, `bundle_to_json`) run with Python's cyclic garbage
collector paused (`_gc_paused`), and so does each CLI command (`cli.run`).
A float document holds one small list per point pair, so building
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
    [doc] = _paths_to_json(p)
    return doc


def _paths_to_json(*paths: PLPath2) -> list:
    """The documents of paths, each distinct time array encoded once: the
    paths on one array get one list object."""
    grids = {}  # id of a time array -> its list; the paths keep each array alive
    docs = []
    for p in paths:
        if id(p.t) not in grids:
            grids[id(p.t)] = _encode(p.t)
        docs.append({"mode": p.mode, "times": grids[id(p.t)], "values": _encode(p.x)})
    return docs


def _encode(a) -> list:
    """Nested lists of JSON scalars; float arrays are already JSON numbers."""
    if not isinstance(a, DyadicArray):
        return a.tolist()
    m, e = a.to_parts()
    _check_range(m, e)
    flat = [{"m": str(x), "e": k} for x, k in zip(m, e)]
    return flat if a.ndim == 1 else list(map(list, zip(*[iter(flat)] * a.shape[1])))


def path_from_json(obj: dict) -> PLPath2:
    [p] = _paths_from_json(obj)
    return p


def _paths_from_json(*objs) -> list:
    """The paths of documents. A path's "times" is decoded unless an earlier
    path of its mode has a list `==` to it (as the same list object is) that
    decodes alike (`_decodes_alike`); then it gets that path's read-only grid."""
    grids = []  # ((mode, "times" list), its decoded grid) of each grid decoded
    paths = []
    for obj in objs:
        mode = _field(obj, "mode")
        if mode not in (EXACT, FLOAT):
            raise UsageError(f"unknown path mode: {mode!r}")
        values = _field(obj, "values", list)
        if set(map(type, values)) - {list} or set(map(len, values)) - {2}:
            raise UsageError("malformed 'values': each entry must be a pair")
        times = _field(obj, "times", list)
        t = next((grid for seen, grid in grids
                  if seen == (mode, times) and _decodes_alike(times, grid)), None)
        if t is None:
            t = _scalars(times, mode)
            t.setflags(write=False)
            grids.append(((mode, times), t))
        x = _scalars(list(chain.from_iterable(values)), mode).reshape(-1, 2)
        paths.append(PLPath2(t, x, mode))
    return paths


def _decodes_alike(times: list, grid) -> bool:
    """Whether a "times" list `==` to the one decoded to grid decodes to it too:
    if exact, it passes the bulk reader's type gate (no bool or float part); if
    float, its one zero, if any, has grid's sign as `float` reads it (-0.0 == 0)."""
    if isinstance(grid, DyadicArray):
        return _exact_parts(times) is not None
    return all(np.signbit(grid[i]) == np.signbit(float(times[i])) for i in np.flatnonzero(grid == 0))


def _exact_parts(flat: list):
    """The "m" and "e" parts of exact scalars as two lists, when every scalar
    is a dict of exactly those two parts, each an int (not a bool) or a str:
    the type gate of reading exact scalars in bulk. Else None."""
    try:
        ms, es = (list(map(itemgetter(k), flat)) for k in "me")
    except (TypeError, KeyError):
        return None
    if (set(map(type, flat)) <= {dict} and set(map(len, flat)) <= {2}
            and set(map(type, ms)) | set(map(type, es)) <= {int, str}):
        return ms, es
    return None


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
    raw, parts = _exact_parts(flat), None
    if raw is not None:
        try:
            parts = [list(map(int, r)) for r in raw]
        except ValueError:  # a malformed part, or a mantissa too long
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
    """The document of a triple; its paths on one time array share one
    "times" list, so edit a copy of it, not the list in place."""
    mode = t.f.mode
    f, g, m = _paths_to_json(t.f, t.g, t.m)
    out = {"matrix": matrix_to_json(t.R, mode), "f": f, "g": g, "m": m}
    if t.tail_bound is not None:
        out["tail_bound"] = scalar_to_json(t.tail_bound, mode)
    return out


def triple_from_json(obj: dict) -> SolutionTriple:
    f, g, m = _paths_from_json(*(_field(obj, k) for k in ("f", "g", "m")))
    tail = obj.get("tail_bound")
    tail = None if tail is None else scalar_from_json(tail, f.mode)
    if isinstance(tail, float) and not math.isfinite(tail):
        raise UsageError(f"tail_bound must be finite, got {tail}")
    return SolutionTriple(R=matrix_from_json(_field(obj, "matrix"), f.mode), f=f, g=g, m=m,
                          tail_bound=tail)


@_gc_paused
def solution_to_json(g: PLPath2, m: PLPath2, iterations: int, converged: bool, residual: float) -> dict:
    """The document of a solution; its paths on one time array share one
    "times" list, so edit a copy of it, not the list in place."""
    g, m = _paths_to_json(g, m)
    return {"g": g, "m": m, "iterations": iterations, "converged": converged, "residual": residual}


_BUNDLE_PATHS = ("u", "m", "mbar", "f", "g", "gbar")


@_gc_paused
def bundle_to_json(b: CounterexampleBundle) -> dict:
    """The document of a counterexample bundle; its paths on one time array
    share one "times" list, so edit a copy of it, not the list in place."""
    mode = b.u.mode
    return {
        "matrix": matrix_to_json(b.R, mode),
        "depth": b.depth,
        **dict(zip(_BUNDLE_PATHS, _paths_to_json(b.u, b.decomp.m, b.decomp.mbar, b.f, b.g, b.gbar))),
        "tail_bound": scalar_to_json(b.tail_bound, mode),
        "rho": scalar_to_json(b.rho, mode),
    }


def bundle_from_json(obj: dict) -> CounterexampleBundle:
    u, m, mbar, f, g, gbar = _paths_from_json(*(_field(obj, k) for k in _BUNDLE_PATHS))
    mode = u.mode
    return CounterexampleBundle(
        R=matrix_from_json(_field(obj, "matrix"), mode),
        u=u,
        decomp=MonotoneDecomp(m, mbar),
        f=f,
        g=g,
        gbar=gbar,
        depth=_field(obj, "depth", int),
        tail_bound=scalar_from_json(_field(obj, "tail_bound"), mode),
        rho=scalar_from_json(_field(obj, "rho"), mode),
    )
