"""Machine-speed probe: scales wall times to a machine of fixed speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x in spells
of seconds to minutes, and a process's CPU time drifts with its wall time.
A run therefore times a fixed task that does not touch ``skorokhod2d`` right
before and right after each measured piece of work, and multiplies the
piece's wall time by ``REFERENCE_S / probe``, where ``probe`` is the median
of the probes taken from ``WINDOW_S`` seconds before the piece started to
``WINDOW_S`` seconds after it ended. The result reads as seconds on a
machine on which the probe takes ``REFERENCE_S``. A change to the package
moves the scaled time as it moves the wall time; a slow spell of the host
moves the probes too and cancels out. The window smooths out the probes'
own jitter, which is larger than the host's drift over a few seconds.

The task mixes the two kinds of work the package does: Python-level loops
over tuples of floats, and numpy calls on arrays of a few thousand points.
A probe is the median of ``REPEATS`` runs of the task, so neither an
interrupt nor the cold cache right after a large instance sets it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds one probe takes on the reference machine (2 vCPUs, Python 3.11,
#: numpy 2.4, in a quiet spell)
REFERENCE_S = 3.0e-3
REPEATS = 5
WINDOW_S = 5.0

_POINTS = [(0.5 * i, 0.25 * i) for i in range(8000)]
_GRID = np.linspace(0.0, 1.0, 40000)
_QUERY = np.linspace(0.0, 1.0, 15001)


def _task() -> float:
    acc = 0.0
    prev = (0.0, 0.0)
    for a, b in _POINTS:
        d = (a - prev[0], b - prev[1])
        acc += d[0] * d[1] if a > b else d[1] - d[0]
        prev = (a, b)
    idx = np.searchsorted(_GRID, _QUERY)
    merged = np.unique(np.concatenate([_GRID, _QUERY]))
    interp = np.interp(merged, _GRID, np.cumsum(_GRID))
    return acc + float(idx[-1]) + float(interp[-1])


def probe() -> float:
    """Seconds the fixed task takes now: the median of REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probes:
    """Probes taken during a run, each stamped with the time it ended."""

    def __init__(self):
        self.taken: list[tuple[float, float]] = []

    def take(self) -> None:
        seconds = probe()
        self.taken.append((time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds to reference seconds for work that ran
        from ``start`` to ``end`` (``perf_counter`` readings), with a probe
        taken right before and right after it."""
        near = [p for t, p in self.taken if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)
