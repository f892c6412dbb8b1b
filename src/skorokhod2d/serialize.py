"""JSON and CSV encodings for paths, triples and solver output.

Exact scalars serialize as {"m": "<decimal-integer-string>", "e": <int>}
meaning m * 2^e; float scalars are plain JSON numbers. The round trip is
bit-identical in exact mode. Decoding a malformed document raises UsageError
naming the missing or malformed key.
"""

from __future__ import annotations

import io
from typing import Any

import numpy as np

from .classify import ReflectionMatrix2
from .counterexample import CounterexampleBundle
from .dyadic import Dyadic, to_dyadic
from .errors import UsageError
from .paths import EXACT, FLOAT, MonotoneDecomp, PLPath2
from .verifier import SolutionTriple


def scalar_to_json(x, mode: str) -> Any:
    if mode == EXACT:
        d = to_dyadic(x)
        return {"m": str(d.mantissa), "e": d.exp2}
    return float(x)


def _field(obj: Any, key: str, kind: type = object) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise UsageError(f"missing key {key!r}")
    if not isinstance(obj[key], kind):
        raise UsageError(f"malformed {key!r}: {obj[key]!r}")
    return obj[key]


def scalar_from_json(obj: Any, mode: str):
    if mode == EXACT:
        if not isinstance(obj, dict) or set(obj) != {"m", "e"}:
            raise UsageError(f"malformed exact scalar: {obj!r}")
    elif isinstance(obj, dict):
        raise UsageError("exact scalar found in a float-mode document")
    try:
        return Dyadic(int(obj["m"]), int(obj["e"])) if mode == EXACT else float(obj)
    except (TypeError, ValueError):
        raise UsageError(f"malformed {mode} scalar: {obj!r}") from None


_SCALARS_TO_JSON = np.frompyfunc(scalar_to_json, 2, 1)
_SCALARS_FROM_JSON = np.frompyfunc(scalar_from_json, 2, 1)


def path_to_json(p: PLPath2) -> dict:
    def encode(a):  # float arrays are already JSON numbers
        return (a if p.mode == FLOAT else _SCALARS_TO_JSON(a, p.mode)).tolist()

    return {"mode": p.mode, "times": encode(p.t), "values": encode(p.x)}


def path_from_json(obj: dict) -> PLPath2:
    mode = _field(obj, "mode")
    if mode not in (EXACT, FLOAT):
        raise UsageError(f"unknown path mode: {mode!r}")
    values = _field(obj, "values", list)
    if not all(isinstance(v, list) and len(v) == 2 for v in values):
        raise UsageError("malformed 'values': each entry must be a pair")
    return PLPath2(_decode(_field(obj, "times", list), mode), _decode(values, mode), mode)


def _decode(items: list, mode: str) -> np.ndarray:
    """One array conversion for a float field; scalar by scalar in exact mode,
    or to name a malformed float entry (numpy reads a null as nan)."""
    if mode == FLOAT:
        try:
            a = np.array(items, dtype=float)
            if not np.isnan(a).any():
                return a
        except (TypeError, ValueError, OverflowError):
            pass
    return _SCALARS_FROM_JSON(np.array(items, dtype=object), mode)


def path_to_csv(p: PLPath2) -> str:
    """One row per breakpoint: t,x1,x2 (exact decimal strings in exact mode)."""
    buf = io.StringIO()
    buf.write("t,x1,x2\n")
    for t, v in zip(p.t.tolist(), p.x.tolist()):
        buf.write(",".join(map(str, (t, *v))) + "\n")  # str is repr for floats
    return buf.getvalue()


def matrix_to_json(R: ReflectionMatrix2, mode: str) -> dict:
    return {"a1": scalar_to_json(R.a1, mode), "a2": scalar_to_json(R.a2, mode)}


def matrix_from_json(obj: dict, mode: str) -> ReflectionMatrix2:
    return ReflectionMatrix2(
        scalar_from_json(_field(obj, "a1"), mode), scalar_from_json(_field(obj, "a2"), mode)
    )


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


def solution_to_json(g: PLPath2, m: PLPath2, iterations: int, converged: bool, residual: float) -> dict:
    return {
        "g": path_to_json(g),
        "m": path_to_json(m),
        "iterations": iterations,
        "converged": converged,
        "residual": residual,
    }


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
