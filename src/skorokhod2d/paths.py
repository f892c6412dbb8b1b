"""Piecewise-linear planar paths and exact path arithmetic.

Paths are immutable: a strictly increasing time grid plus one plane point per
grid time, linearly interpolated in between. Every path is either in exact
mode (dyadic rationals, no operation ever rounds) or float mode (finite IEEE
doubles). The two modes never mix inside one path or one binary operation.

A path keeps read-only arrays `t` (n,) and `x` (n, 2): float64 in float mode;
in exact mode each is a `DyadicArray`, one numpy object array of Python ints
and one power of two for the whole array, so t = t.m * 2**t.e. Paths share
read-only arrays that own their data; `PLPath2(...)` copies any other array
once, and operations freeze their fresh arrays in place. The mode is the type
of the arrays, not a stored field: only the converters of raw input
(`PLPath2(...)`, `merge_times`, `with_times`, `eval` and the scalar arguments
of `matrix_apply` and `scale_components`) take a mode. Each operation is one
piece of array code for both modes, and in exact mode it runs as numpy loops
over ints; constants such as 0 are plain Python ints, which the exact kernels
take as they are. `times`, `values` and `eval` give Python floats or Dyadic,
built on each use. Values between breakpoints come from
v0 + (t - t0) * (v1 - v0) / (t1 - t0), sign changes from
t0 + (t1 - t0) * d0 / (d0 - d1): exact in exact mode, or ExactnessError when
a quotient is not dyadic.

Every float tolerance is FLOAT_DEDUP times a magnitude of the same units
from the inputs; no absolute floor (`negligible`), so no result depends on the
unit of time or space. Every grid that an operation builds goes through
`merge_times`: each time of the base grid is kept, and another time joins
unless it is the same breakpoint as a kept time, their difference negligible
against max(|s|, |t|). The readers that check or measure paths put them on
the sorted union of their grids with only equal times merged (`refine`), one
rule for both modes, so no breakpoint of an input goes unread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dyadic import Dyadic, DyadicArray, to_dyadic
from .errors import DomainError, UsageError

Scalar = Union[Dyadic, float]
Vec2 = tuple[Scalar, Scalar]

EXACT = "exact"
FLOAT = "float"

#: relative size below which a float quantity is negligible
FLOAT_DEDUP = 2.0**-40

def negligible(x, ref):
    """x == 0 when x is exact (a Dyadic or DyadicArray); else the float rule
    |x| <= FLOAT_DEDUP * ref, with ref in x's units."""
    if isinstance(x, (Dyadic, DyadicArray)):
        return x == 0
    return abs(x) <= FLOAT_DEDUP * ref


def _check_mode(mode: str) -> None:
    if mode not in (EXACT, FLOAT):
        raise UsageError(f"unknown mode {mode!r}")


def _coerce_scalar(x, mode: str) -> Scalar:
    if mode == EXACT:
        return to_dyadic(x)
    return float(x)


def _array(a, mode: str):
    """An array of a's scalars: a itself if it is a read-only array of them that
    owns its data (float64 in C order), else a new one; floats must be finite."""
    if mode == EXACT:
        return DyadicArray.of(a)
    if not (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.c_contiguous
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=float, order="C")
    if not np.all(np.isfinite(a)):
        raise UsageError("float paths need finite times and values")
    return a


def _grid(times, mode: str):
    """A nonempty, strictly increasing time array of the mode's scalars (`_array`)."""
    t = _array(times, mode)
    if t.ndim != 1 or not len(t):
        raise UsageError("a time grid must be a nonempty sequence of times")
    if not np.all(t[:-1] < t[1:]):
        raise UsageError("times must be strictly increasing")
    return t


def _py(a):
    """A numpy float as a Python float; Dyadic and Python scalars pass through."""
    return a.item() if isinstance(a, np.generic) else a


class PLPath2:
    """Continuous piecewise-linear path t -> (x1, x2) on [t[0], t[-1]]."""

    def __init__(self, times, values, mode: str = FLOAT):
        _check_mode(mode)
        t, x = _grid(times, mode), _array(values, mode)
        if x.shape != (len(t), 2):
            raise UsageError("values must hold one (x1, x2) pair per time")
        self._freeze(t, x)

    @classmethod
    def _of(cls, t, x) -> "PLPath2":
        """Path on arrays of one mode's scalars that already form a valid grid."""
        return cls.__new__(cls)._freeze(t, x)

    def _freeze(self, t, x) -> "PLPath2":
        t.setflags(write=False)
        x.setflags(write=False)
        self.t, self.x = t, x
        return self

    @property
    def mode(self) -> str:
        """EXACT when the arrays are DyadicArrays, else FLOAT."""
        return EXACT if isinstance(self.t, DyadicArray) else FLOAT

    def __repr__(self) -> str:
        return f"PLPath2({self.times!r}, {self.values!r}, {self.mode!r})"

    # --- basic queries ----------------------------------------------------

    @property
    def times(self) -> tuple:
        """The grid as a tuple of Python floats or Dyadic."""
        return tuple(self.t.tolist())

    @property
    def values(self) -> tuple:
        """The points as a tuple of (x1, x2) pairs of Python floats or Dyadic."""
        return tuple(map(tuple, self.x.tolist()))

    @property
    def start_time(self) -> Scalar:
        return _py(self.t[0])

    @property
    def end_time(self) -> Scalar:
        return _py(self.t[-1])

    def __len__(self) -> int:
        return len(self.t)

    def component(self, j: int) -> tuple:
        return tuple(self.x[:, j].tolist())

    def eval(self, t) -> Vec2:
        """Value at time t; exact linear interpolation between breakpoints."""
        t = _coerce_scalar(t, self.mode)
        ts, x = self.t, self.x
        if not ts[0] <= t <= ts[-1]:
            raise DomainError(f"t={t} outside [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t))  # ts[i - 1] < t <= ts[i]
        v = x[i] if ts[i] == t else _interp(ts[i - 1], ts[i], x[i - 1], x[i], t)
        return tuple(v.tolist())


@dataclass(frozen=True)
class MonotoneDecomp:
    """Jordan decomposition pieces: both componentwise nondecreasing."""

    m: PLPath2
    mbar: PLPath2


def _interp(t0, t1, v0, v1, t):
    """The one interpolation formula; elementwise on broadcastable arrays."""
    return v0 + (t - t0) * (v1 - v0) / (t1 - t0)


# --- grid refinement -------------------------------------------------------


def merge_times(base: Sequence, *extras: Sequence, mode: str) -> list:
    """Union of ascending time grids under the breakpoint rule.

    Every time of `base`, a time grid, is kept. Each time of an extra grid
    joins unless it is the same breakpoint as a time already kept; extras
    are folded in order.
    """
    _check_mode(mode)
    extras = [_array(e, mode) for e in extras]
    if any(e.ndim != 1 for e in extras):
        raise UsageError("extra times must be a flat sequence of times")
    return _merge(_grid(base, mode), *extras).tolist()


def _merge(merged, *extras):
    """`merge_times` on time arrays of one mode's scalars. Exact times are ints
    on one exponent, so exact equality is int equality and nothing is hashed."""
    for e in extras:
        e = _joining(merged, e)
        if len(e):
            merged = np.sort(np.concatenate([merged, e]))
    return merged


def _joining(merged, e):
    """The times of e that `_merge` adds to the grid `merged`: those that are
    not the same breakpoint as a time of `merged` or as the one before them."""
    if not len(e):
        return e
    i = np.searchsorted(merged, e)  # merged[i - 1] < e <= merged[i]
    below = merged[np.maximum(i - 1, 0)]
    above = merged[np.minimum(i, len(merged) - 1)]
    e = e[~(_times_equal(below, e) | _times_equal(above, e))]
    if np.any(_times_equal(e[:-1], e[1:])):
        kept = [0]
        for k in range(1, len(e)):  # of extras that are one breakpoint, the first wins
            if not _times_equal(e[kept[-1]], e[k]):
                kept.append(k)
        e = e[kept]
    return e


def _same(s, t) -> bool:
    """Two grids of equal times: most regrids meet one, since a reader's paths
    often share a grid, and this test costs far less than the bracket search."""
    return len(s) == len(t) and bool(np.all(s == t))


def _times_equal(s, t):
    """The breakpoint rule's equality; elementwise on arrays."""
    return negligible(t - s, np.maximum(abs(s), abs(t)))


def with_times(path: PLPath2, new_times: Sequence) -> PLPath2:
    """Re-grid a path onto an ascending superset of its breakpoint times; a
    time outside the domain must be the same breakpoint as the end it passes."""
    return _regrid(path, _grid(new_times, path.mode))


def _regrid(path: PLPath2, s) -> PLPath2:
    """`with_times` for a grid s that already holds the mode's scalars."""
    t, x = path.t, path.x
    if _same(t, s):
        return PLPath2._of(s, x)
    c = s
    if s[0] < t[0] or s[-1] > t[-1]:  # s ascends: only its ends can leave the domain
        c = np.minimum(np.maximum(s, t[0]), t[-1])
        off = np.nonzero(~_times_equal(c, s))[0]
        if len(off):
            raise DomainError(f"t={s[off[0]]} outside [{t[0]}, {t[-1]}]")
    i = np.searchsorted(t, c)  # t[i - 1] < c <= t[i]
    out = x[i]
    k = np.nonzero(t[i] != c)[0]
    j = i[k]
    out[k] = _interp(t[j - 1, None], t[j, None], x[j - 1], x[j], c[k, None])
    return PLPath2._of(s, out)


def refine(*paths: PLPath2) -> tuple[PLPath2, ...]:
    """Put paths sharing mode, start and end on the sorted union of their
    grids, with only equal times merged, so every breakpoint of every path is
    read. One rule for both modes, for readers that check or measure paths;
    builders of new grids use `_merge` and its breakpoint rule."""
    for q in paths[1:]:
        _require_compatible(paths[0], q)
    ts = [p.t for p in paths]
    if all(_same(ts[0], t) for t in ts[1:]):
        grid = ts[0]
    else:  # np.unique's first call would import numpy.ma, some 20 ms
        grid = np.sort(np.concatenate(ts))
        grid = grid[np.append(True, grid[1:] != grid[:-1])]
    return tuple(_regrid(p, grid) for p in paths)


def _require_compatible(p: PLPath2, q: PLPath2) -> None:
    if p.mode != q.mode:
        raise UsageError(f"mode mismatch: {p.mode} vs {q.mode}")
    ends = ((p.t[0], q.t[0]), (p.t[-1], q.t[-1]))
    if not all(_times_equal(s, t) for s, t in ends):
        raise UsageError("paths must share start and end times")


# --- Jordan decomposition ---------------------------------------------------


def jordan_decompose(u: PLPath2) -> MonotoneDecomp:
    """Minimal split of increments: u(t) = u(t0) + m(t) - mbar(t).

    On each segment every coordinate's increment goes wholly to m if positive,
    wholly to mbar if negative, so m and mbar never increase together.
    """
    d = np.diff(u.x, axis=0)
    up = np.where(d > 0, d, 0)
    start = u.x[:1] - u.x[:1]  # a zero row of u's scalars
    m, mbar = (np.cumsum(np.concatenate([start, inc]), axis=0) for inc in (up, up - d))
    return MonotoneDecomp(PLPath2._of(u.t, m), PLPath2._of(u.t, mbar))


# --- lattice / linear operations ---------------------------------------------


def _crossing_time(t0, t1, d0, d1):
    """Root of the line through (t0, d0), (t1, d1); a strict sign change is assumed."""
    return t0 + (t1 - t0) * d0 / (d0 - d1)


def _insert_crossings(p: PLPath2, d):
    """p's grid plus the times where a column of d (a row per time) strictly
    changes sign."""
    pos, neg = d > 0, d < 0
    change = (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])
    crossings = []  # one ascending array per coordinate
    for j in (0, 1):
        i = np.nonzero(change[:, j])[0]
        crossings.append(_crossing_time(p.t[i], p.t[i + 1], d[i, j], d[i + 1, j]))
    return _merge(p.t, *crossings)


def path_min(p: PLPath2, q: PLPath2) -> PLPath2:
    """Componentwise min; inserts exact crossing breakpoints so result is PL."""
    p, q = refine(p, q)
    grid = _insert_crossings(p, p.x - q.x)
    p, q = _regrid(p, grid), _regrid(q, grid)
    return PLPath2._of(grid, np.minimum(p.x, q.x))


def path_sub(p: PLPath2, q: PLPath2) -> PLPath2:
    p, q = refine(p, q)
    return PLPath2._of(p.t, p.x - q.x)


def negate(p: PLPath2) -> PLPath2:
    return PLPath2._of(p.t, -p.x)


def _part(p: PLPath2, sign: int) -> PLPath2:
    p = _regrid(p, _insert_crossings(p, p.x))
    x = p.x if sign > 0 else -p.x
    return PLPath2._of(p.t, np.where(x > 0, x, 0))


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
    x1, x2 = p.x.T
    return PLPath2._of(p.t, np.column_stack([x1 + a1 * x2, a2 * x1 + x2]))


def scale_components(p: PLPath2, c1, c2) -> PLPath2:
    return PLPath2._of(p.t, _array([c1, c2], p.mode) * p.x)


# --- Stieltjes integration ---------------------------------------------------


def stieltjes(g: PLPath2, m: PLPath2, j: int) -> Scalar:
    """∫ g_j dm_j via the trapezoid rule, exact for PL integrand and integrator."""
    g, m = refine(g, m)
    dm = np.diff(m.x[:, j])
    down = np.nonzero(dm < 0)[0]
    down = down[~negligible(dm[down], np.max(abs(m.x[:, j])))]
    if len(down):
        raise UsageError(f"integrator decreases on segment {down[0]}")
    return trapezoid(g, m, j)


def trapezoid(g: PLPath2, m: PLPath2, j: int) -> Scalar:
    """Trapezoid sum of g_j dm_j over the grid that g and m already share."""
    gj = g.x[:, j]
    terms = (gj[:-1] + gj[1:]) * np.diff(m.x[:, j]) / 2
    return _py(np.sum(terms, initial=0))


def total_variation(p: PLPath2, j: int) -> Scalar:
    return _py(np.sum(abs(np.diff(p.x[:, j])), initial=0))


def sup_distance(p: PLPath2, q: PLPath2) -> Scalar:
    """Sup-norm distance; exact for PL paths (attained at union breakpoints)."""
    p, q = refine(p, q)
    return _py(np.max(abs(p.x - q.x)))
