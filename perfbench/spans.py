"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around calls into the
program's public functions; the program itself is not instrumented.  Each
span keeps its name, operation id, parent span id and start/end times.  The
spans stay in memory until the run ends and are then written out as JSON
lines.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Iterator


class SpanRecorder:
    """Collects spans; a disabled recorder records nothing and costs nothing.

    Appending to a list and drawing from :func:`itertools.count` are atomic
    under the interpreter lock, so client threads may share one recorder.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self._ids = itertools.count(1)

    def sample(self, name: str, value: float) -> None:
        """Record one value of a per-layer quantity that is not a span."""
        if self.enabled:
            self.samples.setdefault(name, []).append(float(value))

    @contextmanager
    def span(self, name: str, op: str, parent: int | None = None
             ) -> Iterator[int | None]:
        """Record the duration of the ``with`` block as one span."""
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append({"id": span_id, "name": name, "op": op,
                               "parent": parent, "start": start,
                               "end": time.perf_counter()})

    def timed(self, name: str, op: str, function, *args, **kwargs):
        """Call ``function`` inside a span; returns ``(result, milliseconds)``."""
        start = time.perf_counter()
        result = function(*args, **kwargs)
        end = time.perf_counter()
        if self.enabled:
            self.spans.append({"id": next(self._ids), "name": name, "op": op,
                               "parent": None, "start": start, "end": end})
        return result, (end - start) * 1e3

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [(s["end"] - s["start"]) * 1e3
                for s in self.spans if s["name"] == name]

    def self_times_ms(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time in milliseconds.

        A span's self time is its duration minus the part of it covered by
        its children.
        """
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span["id"], []))
            duration = span["end"] - span["start"]
            row = table.setdefault(span["name"], {"count": 0, "total_ms": 0.0,
                                                  "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += (duration - covered) * 1e3
        return table

    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(span, start=span["start"] - origin,
                           end=span["end"] - origin)
                handle.write(json.dumps(row) + "\n")


def _covered(span: dict, children: list[dict]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted((max(c["start"], span["start"]),
                        min(c["end"], span["end"])) for c in children)
    covered, reach = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered
