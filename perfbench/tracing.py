"""In-memory spans and counters for the traced benchmark run.

A span is ``{name, start, end, parent, instance}``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (``None`` at the top) and ``instance``
names the benchmark instance the work belongs to. Spans are kept in memory
and written out once, when the run ends, so writing costs nothing while the
run is measured. An untraced run uses a disabled tracer whose ``span`` is a
shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.instance: str | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; a no-op when tracing is off."""
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, value), value)

    def busy(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def child_busy(self, parent_name: str) -> float:
        """Summed duration of the direct children of spans named ``parent_name``."""
        parents = {i for i, s in enumerate(self.spans) if s["name"] == parent_name}
        return sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in parents
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
