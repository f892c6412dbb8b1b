"""Piecewise-linear planar paths and exact path arithmetic.

Paths are immutable: a strictly increasing time grid plus one plane point per
grid time, linearly interpolated in between. Every path is either in exact
mode (all scalars Dyadic, no operation ever rounds) or float mode (IEEE
doubles). The two modes never mix inside one path or one binary operation.

Every float tolerance is FLOAT_DEDUP times a magnitude of the same units
from the inputs; no absolute floor (`negligible`), so no result depends on the
unit of time or space. Every grid decision goes through `merge_times`: each
time of the base grid is kept, and another time joins unless it is the same
breakpoint as a kept time, their difference negligible against max(|s|, |t|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .dyadic import Dyadic, to_dyadic
from .errors import DomainError, UsageError

Scalar = Union[Dyadic, float]
Vec2 = tuple[Scalar, Scalar]

EXACT = "exact"
FLOAT = "float"

#: relative size below which a float quantity is negligible
FLOAT_DEDUP = 2.0**-40


def negligible(x, ref, mode: str):
    """x == 0 in exact mode, |x| <= FLOAT_DEDUP * ref (ref in x's units) in float."""
    if mode == EXACT:
        return x == 0
    return abs(x) <= FLOAT_DEDUP * ref


def _check_mode(mode: str) -> None:
    if mode not in (EXACT, FLOAT):
        raise UsageError(f"unknown mode {mode!r}")


def _coerce_scalar(x, mode: str) -> Scalar:
    if mode == EXACT:
        return to_dyadic(x)
    return float(x)


@dataclass(frozen=True)
class PLPath2:
    """Continuous piecewise-linear path t -> (x1, x2) on [times[0], times[-1]]."""

    times: tuple
    values: tuple
    mode: str = FLOAT

    def __post_init__(self):
        _check_mode(self.mode)
        times = tuple(_coerce_scalar(t, self.mode) for t in self.times)
        values = tuple(
            (_coerce_scalar(v[0], self.mode), _coerce_scalar(v[1], self.mode))
            for v in self.values
        )
        if len(times) != len(values) or not times:
            raise UsageError("times and values must be equal-length and nonempty")
        for a, b in zip(times, times[1:]):
            if not a < b:
                raise UsageError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # --- basic queries ----------------------------------------------------

    @property
    def start_time(self) -> Scalar:
        return self.times[0]

    @property
    def end_time(self) -> Scalar:
        return self.times[-1]

    def __len__(self) -> int:
        return len(self.times)

    def component(self, j: int) -> tuple:
        return tuple(v[j] for v in self.values)

    def eval(self, t) -> Vec2:
        """Value at time t; exact linear interpolation between breakpoints."""
        t = _coerce_scalar(t, self.mode)
        times = self.times
        if t < times[0] or t > times[-1]:
            raise DomainError(f"t={t} outside [{times[0]}, {times[-1]}]")
        lo, hi = 0, len(times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if times[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        if times[lo] == t:
            return self.values[lo]
        return _interp(times[lo], times[lo + 1], self.values[lo], self.values[lo + 1], t, self.mode)

    def segments(self) -> Iterable[tuple]:
        """Yield (t0, t1, v0, v1) per linear piece."""
        for i in range(len(self.times) - 1):
            yield self.times[i], self.times[i + 1], self.values[i], self.values[i + 1]

    def map_values(self, fn) -> "PLPath2":
        """New path with the same grid and values fn((x1, x2)) -> (y1, y2)."""
        return PLPath2(self.times, tuple(fn(v) for v in self.values), self.mode)


@dataclass(frozen=True)
class MonotoneDecomp:
    """Jordan decomposition pieces: both componentwise nondecreasing."""

    m: PLPath2
    mbar: PLPath2


def _interp(t0, t1, v0, v1, t, mode: str) -> Vec2:
    if mode == FLOAT:
        th = (t - t0) / (t1 - t0)
        return (v0[0] + th * (v1[0] - v0[0]), v0[1] + th * (v1[1] - v0[1]))
    th = (t.as_fraction() - t0.as_fraction()) / (t1.as_fraction() - t0.as_fraction())
    out = []
    for a, b in zip(v0, v1):
        val = a.as_fraction() + th * (b.as_fraction() - a.as_fraction())
        out.append(Dyadic.from_fraction(val))
    return (out[0], out[1])


# --- grid refinement -------------------------------------------------------


def merge_times(base: Sequence, *extras: Sequence, mode: str) -> list:
    """Union of ascending time grids under the breakpoint rule.

    Every time of the nonempty `base` is kept. Each time of an extra grid
    joins unless it is the same breakpoint as a time already kept; extras
    are folded in order.
    """
    _check_mode(mode)
    merged = np.asarray(base, dtype=float) if mode == FLOAT else list(base)
    for extra in extras:
        merged = (_merge_float if mode == FLOAT else _merge_exact)(merged, extra)
    return merged.tolist() if mode == FLOAT else merged


def _merge_exact(base: list, extra: Sequence) -> list:
    # one linear walk on equality: Dyadic times are never sorted or hashed
    out: list = []
    i, n = 0, len(base)
    for t in extra:
        while i < n and base[i] <= t:
            out.append(base[i])
            i += 1
        if not (out and out[-1] == t):
            out.append(t)
    out.extend(base[i:])
    return out


def _merge_float(b: np.ndarray, extra: Sequence) -> np.ndarray:
    e = np.asarray(extra, dtype=float)
    i = np.searchsorted(b, e)  # b[i - 1] < e <= b[i]
    below, above = b[np.maximum(i - 1, 0)], b[np.minimum(i, len(b) - 1)]
    e = e[~(_times_equal(below, e, FLOAT) | _times_equal(above, e, FLOAT))]
    if np.any(_times_equal(e[:-1], e[1:], FLOAT)):
        kept: list = []
        for t in e.tolist():  # of extras that are one breakpoint, the first wins
            if not (kept and _times_equal(kept[-1], t, FLOAT)):
                kept.append(t)
        e = np.asarray(kept)
    return np.sort(np.concatenate([b, e]))


def _times_equal(s, t, mode: str):
    """The breakpoint rule's equality; elementwise on float arrays."""
    return negligible(t - s, np.maximum(abs(s), abs(t)), mode)


def with_times(path: PLPath2, new_times: Sequence) -> PLPath2:
    """Re-grid a path onto an ascending superset of its breakpoint times; a
    time outside the domain must be the same breakpoint as the end it passes."""
    times, vals, mode = path.times, path.values, path.mode
    out, i = [], 0
    for t in new_times:
        if not times[0] <= t <= times[-1]:
            end = times[0] if t < times[0] else times[-1]
            if not _times_equal(end, t, mode):
                raise DomainError(f"t={t} outside [{times[0]}, {times[-1]}]")
            t = end
        while times[i] < t:  # one walk: times are never hashed or bisected
            i += 1
        if times[i] == t:
            out.append(vals[i])
        else:
            out.append(_interp(times[i - 1], times[i], vals[i - 1], vals[i], t, mode))
    return PLPath2(tuple(new_times), tuple(out), mode)


def refine(*paths: PLPath2) -> tuple[PLPath2, ...]:
    """Put paths sharing mode, start and end on the `merge_times` union of
    their grids; every breakpoint of the first path is kept."""
    first = paths[0]
    for q in paths[1:]:
        _require_compatible(first, q)
    grid = merge_times(first.times, *(q.times for q in paths[1:]), mode=first.mode)
    return tuple(with_times(p, grid) for p in paths)


def _require_compatible(p: PLPath2, q: PLPath2) -> None:
    if p.mode != q.mode:
        raise UsageError(f"mode mismatch: {p.mode} vs {q.mode}")
    ends = ((p.start_time, q.start_time), (p.end_time, q.end_time))
    if not all(_times_equal(s, t, p.mode) for s, t in ends):
        raise UsageError("paths must share start and end times")


# --- Jordan decomposition ---------------------------------------------------


def jordan_decompose(u: PLPath2) -> MonotoneDecomp:
    """Minimal split of increments: u(t) = u(t0) + m(t) - mbar(t).

    On each segment every coordinate's increment goes wholly to m if positive,
    wholly to mbar if negative, so m and mbar never increase together.
    """
    zero = _coerce_scalar(0, u.mode)
    m_vals = [(zero, zero)]
    mb_vals = [(zero, zero)]
    for i in range(1, len(u.times)):
        m_new, mb_new = [], []
        for j in (0, 1):
            d = u.values[i][j] - u.values[i - 1][j]
            if d > zero:
                m_new.append(m_vals[-1][j] + d)
                mb_new.append(mb_vals[-1][j])
            else:
                m_new.append(m_vals[-1][j])
                mb_new.append(mb_vals[-1][j] - d)
        m_vals.append((m_new[0], m_new[1]))
        mb_vals.append((mb_new[0], mb_new[1]))
    return MonotoneDecomp(
        PLPath2(u.times, tuple(m_vals), u.mode),
        PLPath2(u.times, tuple(mb_vals), u.mode),
    )


# --- lattice / linear operations ---------------------------------------------


def _crossing_time(t0, t1, d0, d1, mode: str):
    """Root of the linear function through (t0, d0), (t1, d1); strict sign change assumed."""
    if mode == FLOAT:
        return t0 + (t1 - t0) * (d0 / (d0 - d1))
    th = d0.as_fraction() / (d0.as_fraction() - d1.as_fraction())
    val = t0.as_fraction() + th * (t1.as_fraction() - t0.as_fraction())
    return Dyadic.from_fraction(val)


def _insert_crossings(p: PLPath2, diffs: Sequence[Vec2]) -> list:
    """p's grid plus the times where a diff coordinate strictly changes sign."""
    zero = _coerce_scalar(0, p.mode)
    crossings: tuple = ([], [])  # one ascending list per coordinate
    for i in range(len(p.times) - 1):
        for j in (0, 1):
            d0, d1 = diffs[i][j], diffs[i + 1][j]
            if (d0 > zero and d1 < zero) or (d0 < zero and d1 > zero):
                crossings[j].append(
                    _crossing_time(p.times[i], p.times[i + 1], d0, d1, p.mode)
                )
    return merge_times(p.times, *crossings, mode=p.mode)


def path_min(p: PLPath2, q: PLPath2) -> PLPath2:
    """Componentwise min; inserts exact crossing breakpoints so result is PL."""
    p, q = refine(p, q)
    diffs = [(a[0] - b[0], a[1] - b[1]) for a, b in zip(p.values, q.values)]
    grid = _insert_crossings(p, diffs)
    p, q = with_times(p, grid), with_times(q, grid)
    vals = tuple((min(a[0], b[0]), min(a[1], b[1])) for a, b in zip(p.values, q.values))
    return PLPath2(p.times, vals, p.mode)


def path_add(p: PLPath2, q: PLPath2) -> PLPath2:
    p, q = refine(p, q)
    vals = tuple((a[0] + b[0], a[1] + b[1]) for a, b in zip(p.values, q.values))
    return PLPath2(p.times, vals, p.mode)


def path_sub(p: PLPath2, q: PLPath2) -> PLPath2:
    p, q = refine(p, q)
    vals = tuple((a[0] - b[0], a[1] - b[1]) for a, b in zip(p.values, q.values))
    return PLPath2(p.times, vals, p.mode)


def negate(p: PLPath2) -> PLPath2:
    return p.map_values(lambda v: (-v[0], -v[1]))


def _part(p: PLPath2, sign: int) -> PLPath2:
    zero = _coerce_scalar(0, p.mode)
    grid = _insert_crossings(p, p.values)
    p = with_times(p, grid)

    def clip(x):
        if sign > 0:
            return x if x > zero else zero
        return -x if x < zero else zero

    return p.map_values(lambda v: (clip(v[0]), clip(v[1])))


def plus_part(p: PLPath2) -> PLPath2:
    """Componentwise positive part, with zero-crossing breakpoints inserted."""
    return _part(p, +1)


def minus_part(p: PLPath2) -> PLPath2:
    """Componentwise negative part (nonnegative result)."""
    return _part(p, -1)


def matrix_apply(a1, a2, p: PLPath2) -> PLPath2:
    """Image under R = [[1, a1], [a2, 1]], applied breakpoint-wise."""
    a1 = _coerce_scalar(a1, p.mode)
    a2 = _coerce_scalar(a2, p.mode)
    return p.map_values(lambda v: (v[0] + a1 * v[1], a2 * v[0] + v[1]))


def scale_components(p: PLPath2, c1, c2) -> PLPath2:
    c1 = _coerce_scalar(c1, p.mode)
    c2 = _coerce_scalar(c2, p.mode)
    return p.map_values(lambda v: (c1 * v[0], c2 * v[1]))


# --- Stieltjes integration ---------------------------------------------------


def stieltjes(g: PLPath2, m: PLPath2, j: int) -> Scalar:
    """∫ g_j dm_j via the trapezoid rule, exact for PL integrand and integrator."""
    g, m = refine(g, m)
    ref = max(abs(v[j]) for v in m.values)
    for i in range(len(m.times) - 1):
        dm = m.values[i + 1][j] - m.values[i][j]
        if dm < 0 and not negligible(dm, ref, m.mode):
            raise UsageError(f"integrator decreases on segment {i}")
    return trapezoid(g, m, j)


def trapezoid(g: PLPath2, m: PLPath2, j: int) -> Scalar:
    """Trapezoid sum of g_j dm_j over the grid that g and m already share."""
    total = _coerce_scalar(0, g.mode)
    for i in range(len(g.times) - 1):
        dm = m.values[i + 1][j] - m.values[i][j]
        total = total + (g.values[i][j] + g.values[i + 1][j]) * dm / 2
    return total


def total_variation(p: PLPath2, j: int) -> Scalar:
    zero = _coerce_scalar(0, p.mode)
    tv = zero
    for i in range(len(p.times) - 1):
        tv = tv + abs(p.values[i + 1][j] - p.values[i][j])
    return tv


def sup_distance(p: PLPath2, q: PLPath2) -> Scalar:
    """Sup-norm distance; exact for PL paths (attained at union breakpoints)."""
    p, q = refine(p, q)
    return max(
        max(abs(a[0] - b[0]), abs(a[1] - b[1])) for a, b in zip(p.values, q.values)
    )
