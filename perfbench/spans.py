"""In-memory span recorder and the self-time arithmetic of the traced run.

A span is one call into a layer's public function: name, layer, start,
end, the span that was open when it started (its parent) and a trace id.
A new trace starts at every targeted fault and every service job; spans
outside one inherit the trace of the enclosing span.

Self time is a span's duration minus the part of its interval that its
direct children cover.  A layer's busy time counts only its outermost
spans, so a layer calling itself (``tdsim`` spans nest) is not counted
twice.  This module imports nothing from the program under test, so the
arithmetic is testable on hand-built span trees.
"""

from __future__ import annotations

import dataclasses
import re
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: Every metric name the benchmark prints must match this pattern.
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclasses.dataclass
class Span:
    """One recorded call; ``end`` is ``None`` while the call is open."""

    span_id: int
    name: str
    layer: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    trace: int = 0
    #: Counts recorded at the boundary (backtracks, detections, ...).
    attrs: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class SpanRecorder:
    """Keeps spans in memory; nothing is written until :meth:`spans` is read."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_trace = 1

    def open(self, name: str, layer: str, new_trace: bool = False) -> Optional[Span]:
        """Start a span under the innermost open one; ``None`` when paused."""
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        if new_trace or parent is None:
            trace = self._next_trace
            self._next_trace += 1
        else:
            trace = parent.trace
        span = Span(
            span_id=len(self._spans),
            name=name,
            layer=layer,
            start=self.clock(),
            parent=parent.span_id if parent is not None else None,
            trace=trace,
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = self.clock()
        # Pop down to this span: an exception may unwind several frames.
        while self._stack:
            if self._stack.pop() is span:
                break

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], trace: int) -> Span:
        """Record a span measured elsewhere (service job timestamps)."""
        span = Span(len(self._spans), name, layer, start, end, parent, trace)
        self._spans.append(span)
        return span

    def new_trace(self) -> int:
        trace = self._next_trace
        self._next_trace += 1
        return trace

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - covered_length(
            children.get(span.span_id, ()), span.start, span.start + span.duration
        )
        for span in spans
    }


def layer_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``busy_s`` (outermost spans only) and ``self_s`` (all spans)."""
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.layer, {"busy_s": 0.0, "self_s": 0.0})
        entry["self_s"] += selfs[span.span_id]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.layer == span.layer:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if not nested:
            entry["busy_s"] += span.duration
    return out
