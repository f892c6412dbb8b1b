"""Command-line front end.

Machine-readable JSON goes to stdout, human summaries to stderr. Exit codes:
0 success (and pass=true where a verdict applies), 1 verification failure,
2 usage or input errors.

Each JSON document is encoded once, by `json.dumps(doc, sort_keys=True)`:
`_emit` prints every stdout document, and `solve --out` writes the same
text without the final newline. `counterexample --out` writes the bundle,
which is a different document from the one printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import serialize
from .classify import ReflectionMatrix2, classify
from .counterexample import build_counterexample, check_identities, solution_gap
from .dyadic import Dyadic
from .errors import (
    ConstructionError,
    DivergenceError,
    DomainError,
    ExactnessError,
    InvalidMatrixError,
    StepInfeasibleError,
    UsageError,
)
from .figure import emit_figure
from .solver import SolveConfig, solve_fixed_point, solve_grid
from .verifier import compare_solutions, verify

_PKG_ERRORS = (
    UsageError,
    DomainError,
    InvalidMatrixError,
    ConstructionError,
    DivergenceError,
    ExactnessError,
    StepInfeasibleError,
    OSError,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a number: {text!r} ({exc})") from None


def _bounded(text: str) -> Fraction:
    """The number, exactly, refused when it is past the double range: it is
    used or reported as a double."""
    fr = _fraction(text)
    try:
        float(fr)
    except OverflowError:
        raise UsageError(f"number beyond the double range: {text!r}") from None
    return fr


def _float_flag(text: str | None) -> float | None:
    """A float flag's value, refused past the double range; None if unset."""
    return None if text is None else float(_bounded(text))


def _parse_number(text: str, exact: bool):
    if exact:
        return Dyadic.from_fraction(_fraction(text))
    return float(_bounded(text))


def _parse_matrix(text: str, exact: bool) -> ReflectionMatrix2:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--matrix expects 'a1,a2'")
    return ReflectionMatrix2(
        _parse_number(parts[0], exact), _parse_number(parts[1], exact)
    )


def _parse_tol(text: str):
    fr = _bounded(text)
    return 0 if fr == 0 else float(fr)


@serialize._gc_paused
def _read_json(path: str):
    """The JSON document in a file, read with the cyclic garbage collector
    paused, as the encoders build one. Any ValueError while reading it
    (malformed JSON, bad UTF-8, an integer past the interpreter's digit
    limit) is a UsageError."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise UsageError(f"{path}: not a readable JSON document ({exc})") from None


def _emit(doc: dict, out: str | None = None) -> None:
    """Encode the document once, write the text to out if given, then print
    it. The newline is a second write: appending it would copy the text."""
    text = json.dumps(doc, sort_keys=True)
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)
    sys.stdout.write("\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# --- subcommand handlers -----------------------------------------------------


def _cmd_classify(args) -> int:
    R = _parse_matrix(f"{args.a1},{args.a2}", args.exact)
    c = classify(R)
    _emit(
        {
            "completely_s": c.completely_s,
            "radius": c.radius,
            "radius_exact": c.radius_exact,
            "regime": c.regime.value,
            "critical_caveat": c.critical_caveat,
            "uniqueness_note": c.uniqueness_note,
        }
    )
    _note(f"regime {c.regime.value}, radius {c.radius:.12g}: {c.uniqueness_note}")
    return 0


def _cmd_solve(args) -> int:
    R = _parse_matrix(args.matrix, exact=False)
    tol, damping = _float_flag(args.tol), _float_flag(args.damping)
    f = serialize.path_from_json(_read_json(args.f))
    if args.grid_steps < 0:
        raise UsageError("--grid-steps must be >= 0")
    grid = None
    if args.grid_steps:
        t0, t1 = float(f.start_time), float(f.end_time)
        grid = np.linspace(t0, t1, args.grid_steps + 1)
    cfg = SolveConfig(tol=tol, max_iter=args.max_iter, grid=grid, damping=damping)
    if args.method == "fixed":
        res = solve_fixed_point(R, f, cfg)
    else:
        res = solve_grid(R, f, cfg)
    doc = serialize.solution_to_json(
        res.g, res.m, res.iterations, res.converged, res.residual
    )
    _emit(doc, args.out)
    _note(
        f"{args.method} solver: {res.iterations} iterations, "
        f"converged={res.converged}, residual={res.residual:.3g}"
    )
    return 0


def _cmd_counterexample(args) -> int:
    min_time = _float_flag(args.min_time)
    bundle = build_counterexample(_bounded(args.a1), args.depth)
    doc = {
        "a1": float(bundle.R.a1),
        "depth": bundle.depth,
        "mode": bundle.u.mode,
        "tail_bound": float(bundle.tail_bound),
        "gap_at_end": [float(x) for x in solution_gap(bundle)],
        "identities_ok": check_identities(bundle),
    }
    ok = True
    if args.verify:
        r1 = verify(bundle.triple(), bundle.tol)
        r2 = verify(bundle.triple_bar(), bundle.tol)
        doc["verify"] = r1.to_json()
        doc["verify_bar"] = r2.to_json()
        ok = r1.passed and r2.passed
    files = {}  # made before any is written, so a refused one leaves no file
    if args.out:
        files[args.out] = json.dumps(serialize.bundle_to_json(bundle), sort_keys=True)
    if args.figure:
        files[args.figure] = emit_figure(bundle, min_time=min_time)
    for path, text in files.items():
        Path(path).write_text(text)
    _emit(doc)
    _note(
        f"counterexample a1={doc['a1']}, depth={bundle.depth}: "
        f"gap at t=1 is {doc['gap_at_end']}"
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    tol = _parse_tol(args.tol)
    triple = serialize.triple_from_json(_read_json(args.triple))
    if args.matrix:
        R = _parse_matrix(args.matrix, exact=triple.f.mode == "exact")
        triple = type(triple)(R, triple.f, triple.g, triple.m, triple.tail_bound)
    report = verify(triple, tol, strict=args.strict)
    _emit(report.to_json())
    _note(f"verification {'passed' if report.passed else 'FAILED'} at tol={tol}")
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    tol = _parse_tol(args.tol)
    s1 = serialize.triple_from_json(_read_json(args.s1))
    s2 = serialize.triple_from_json(_read_json(args.s2))
    diag = compare_solutions(s1, s2, tol)
    _emit(diag.to_json())
    _note(
        f"max_v={float(diag.max_v):.6g}, "
        f"v_monotone_on_support={diag.v_monotone_on_support}"
    )
    return 0


def _cmd_figure(args) -> int:
    coord_range, min_time = _float_flag(args.range), _float_flag(args.min_time)
    if coord_range is not None and not coord_range > 0:
        raise UsageError("--range must be positive")
    if args.size < 1:
        raise UsageError("--size must be >= 1")
    bundle = build_counterexample(_bounded(args.a1), args.depth)
    svg = emit_figure(bundle, size=args.size, coord_range=coord_range, min_time=min_time)
    Path(args.out).write_text(svg)
    _emit({"out": args.out, "breakpoints": len(bundle.u)})
    _note(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skorokhod2d",
        description="Solve, classify and verify two-dimensional Skorokhod problems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="regime classification of a reflection matrix")
    c.add_argument("--a1", required=True)
    c.add_argument("--a2", required=True)
    c.add_argument("--exact", action="store_true")
    c.set_defaults(handler=_cmd_classify)

    s = sub.add_parser("solve", help="solve the Skorokhod problem numerically")
    s.add_argument("--matrix", required=True, help="a1,a2")
    s.add_argument("--f", required=True, help="driving path JSON file")
    s.add_argument("--method", choices=("fixed", "grid"), default="fixed")
    s.add_argument("--tol", default="1e-9")
    s.add_argument("--max-iter", type=int, default=10000)
    s.add_argument("--damping", default="1")
    s.add_argument("--grid-steps", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_solve)

    ce = sub.add_parser("counterexample", help="build the non-uniqueness bundle")
    ce.add_argument("--a1", default="-2")
    ce.add_argument("--depth", type=int, default=40)
    ce.add_argument("--verify", action="store_true")
    ce.add_argument("--out")
    ce.add_argument("--figure")
    ce.add_argument("--min-time")
    ce.set_defaults(handler=_cmd_counterexample)

    v = sub.add_parser("verify", help="certify a candidate solution triple")
    v.add_argument("--triple", required=True)
    v.add_argument("--matrix")
    v.add_argument("--tol", default="0")
    v.add_argument("--strict", action="store_true")
    v.set_defaults(handler=_cmd_verify)

    cp = sub.add_parser("compare", help="uniqueness diagnostics for two solutions")
    cp.add_argument("--s1", required=True)
    cp.add_argument("--s2", required=True)
    cp.add_argument("--tol", default="0")
    cp.set_defaults(handler=_cmd_compare)

    fg = sub.add_parser("figure", help="emit the spiral SVG figure")
    fg.add_argument("--a1", default="-2")
    fg.add_argument("--depth", type=int, default=28)
    fg.add_argument("--out", required=True)
    fg.add_argument("--size", type=int, default=640)
    fg.add_argument("--range")
    fg.add_argument("--min-time")
    fg.set_defaults(handler=_cmd_figure)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _PKG_ERRORS as exc:
        _note(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
