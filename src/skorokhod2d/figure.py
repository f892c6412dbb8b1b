"""Deterministic SVG rendering of the counterexample spiral.

The figure shows the path u in the (u1, u2) plane together with the two
reference lines u1 + u2 = 0 and u1 + a1*u2 = 0, with the represented
breakpoints marked. Output is byte-stable for fixed inputs and options.
"""

from __future__ import annotations

import math

from .counterexample import CounterexampleBundle
from .errors import UsageError


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def emit_figure(
    bundle: CounterexampleBundle,
    size: int = 640,
    coord_range: float | None = None,
    min_time: float | None = None,
) -> str:
    """SVG document for the spiral; min_time restricts to breakpoints t >= min_time.

    A size below 1, or a coord_range that is not finite and positive, is a
    UsageError, as is a min_time after every breakpoint.
    """
    if not size >= 1:
        raise UsageError(f"figure size must be >= 1, not {size!r}")
    if coord_range is not None and not 0 < coord_range < math.inf:
        raise UsageError(f"figure range must be finite and positive, not {coord_range!r}")
    pts = [
        (float(v[0]), float(v[1]))
        for t, v in zip(bundle.u.times, bundle.u.values)
        if min_time is None or float(t) >= min_time
    ]
    if not pts:
        raise UsageError("figure needs a breakpoint at or after min_time and range > 0")
    a1 = float(bundle.R.a1)
    if coord_range is None:
        coord_range = 1.25 * max(max(abs(x), abs(y)) for x, y in pts)

    half = size / 2.0
    scale = half / coord_range

    def to_px(x: float, y: float) -> tuple[float, float]:
        return half + x * scale, half - y * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # axes
    lines.append(
        f'<line x1="0" y1="{_fmt(half)}" x2="{size}" y2="{_fmt(half)}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{_fmt(half)}" y1="0" x2="{_fmt(half)}" y2="{size}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    # reference line u1 + u2 = 0: direction (1, -1)
    x0, y0 = to_px(-coord_range, coord_range)
    x1, y1 = to_px(coord_range, -coord_range)
    lines.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    # reference line u1 + a1*u2 = 0: direction (-a1, 1)
    n = max(abs(a1), 1.0)
    x0, y0 = to_px(-a1 * coord_range / n, coord_range / n)
    x1, y1 = to_px(a1 * coord_range / n, -coord_range / n)
    lines.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    poly = " ".join(_fmt(c) for p in pts for c in to_px(*p))
    lines.append(
        f'<polyline points="{poly}" fill="none" stroke="#2e8b57" stroke-width="1.5"/>'
    )
    for x, y in pts:
        px, py = to_px(x, y)
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="#2e8b57"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
