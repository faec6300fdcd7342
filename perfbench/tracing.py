"""In-memory spans recorded around calls into podselect's public functions.

A span is named ``<layer>.<function>``, where the layer is the podselect
module. Spans nest by a stack, carry a trace id (the episode id, or
"run" for corpus-wide calls) and stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    trace_id: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str = "run"):
        record = Span(len(self.spans), self._stack[-1] if self._stack else None,
                      name, trace_id, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced run of the same replay."""

    def span(self, name: str, trace_id: str = "run"):
        return nullcontext()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id is not None:
            parent = by_id[s.parent_id]
            children.setdefault(s.parent_id, []).append(
                (max(s.start, parent.start), min(s.end, parent.end)))
    return {s.span_id: s.duration - _covered(children.get(s.span_id, [])) for s in spans}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.span_id]
    return out


def name_totals(spans: list[Span]) -> dict[str, float]:
    """Span name -> summed duration."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out
