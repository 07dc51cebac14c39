"""In-memory spans around the calls into each layer.

The traced run records one span per layer boundary from the
benchmark's own files (tracing inside ``src/`` is a later issue).
Spans of one cell share a ``trace_id``; exact counts ride on the cell
span as counters instead of one span per ack.  Nothing is written
until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; nesting gives the parent link."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, trace_id: int = 0):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(span_id=len(self.spans), name=name, trace_id=trace_id,
                    parent=parent, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path, meta: dict) -> None:
        payload = {"meta": meta, "spans": [
            {"id": s.span_id, "name": s.name, "trace": s.trace_id,
             "parent": s.parent, "start": s.start, "end": s.end,
             "counters": s.counters} for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval
    its direct children cover (children never overlap: one thread).
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = (totals.get(span.name, 0.0)
                             + span.duration - covered[span.span_id])
    return totals
