"""In-memory spans recorded by the benchmark around its calls into layers.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of its parent span, the id of the unit it belongs to, and free-form
attributes read from the layer's result.  Spans stay in memory until the
benchmark ends.  A layer's *self time* is its span's duration minus the
time its child spans cover, so self times of all spans under a root add up
to the root's duration.

The untraced run uses :data:`NULL_TRACER`, whose ``span`` is a shared no-op
context, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "unit", "attrs")

    def __init__(
        self,
        index: int,
        name: str,
        start: float,
        parent: Optional[int],
        unit: Optional[str],
        attrs: Dict[str, object],
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "unit": self.unit,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans; ``unit`` tags every span opened under it."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._unit: Optional[str] = None

    @property
    def active(self) -> bool:
        """Whether a span is open, so that work done now belongs to one."""
        return bool(self._open)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        span = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            self._open[-1] if self._open else None,
            self._unit,
            attrs,
        )
        self.spans.append(span)
        self._open.append(span.index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def unit(self, unit_id: str) -> Iterator[Span]:
        """A root span named ``unit`` whose descendants carry ``unit_id``."""
        self._unit = unit_id
        try:
            with self.span("unit") as span:
                yield span
        finally:
            self._unit = None

    def add(self, name: str, start: float, end: float) -> Span:
        """A finished span timed before the tracer could open it."""
        span = Span(
            len(self.spans),
            name,
            start,
            self._open[-1] if self._open else None,
            self._unit,
            {},
        )
        span.end = end
        self.spans.append(span)
        return span

    def child(self, parent: Span, name: str, seconds: float) -> Span:
        """A finished child of ``parent`` lasting ``seconds`` from its start.

        For a part of a layer call that the layer's own result times.
        """
        span = Span(len(self.spans), name, parent.start, parent.index, parent.unit, {})
        span.end = parent.start + seconds
        self.spans.append(span)
        return span

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return [span.seconds - covered[i] for i, span in enumerate(self.spans)]


class _NullTracer:
    enabled = False
    _context = contextlib.nullcontext(None)

    def span(self, name: str, **attrs: object):
        return self._context

    def unit(self, unit_id: str):
        return self._context


NULL_TRACER = _NullTracer()
