"""Spans: nested wall/CPU timing of pipeline regions.

``with span("hb.build"):`` times a region against the *active* tracer.
Spans nest per OS thread (a thread-local stack tracks the current
parent), record wall time (``perf_counter``) and process CPU time
(``process_time``), and survive exceptions — a span that unwinds with an
error is closed with ``status="error"`` and the exception propagates.

Exports (see ``repro.obs.export``):

* plain JSON — the span tree with timings, for diffing across commits;
* Chrome trace-event format — load the file in ``chrome://tracing`` (or
  https://ui.perfetto.dev) for a flamegraph of where pipeline time goes.

Like the metrics registry, the active tracer defaults to a no-op
(``NULL_TRACER``): instrumented code pays one method call and an empty
context manager when profiling is off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from contextlib import contextmanager


@dataclass
class Span:
    """One timed region (closed spans only ever appear in exports)."""

    span_id: int
    name: str
    parent_id: Optional[int]
    thread: str
    start_wall: float  # seconds since the tracer's epoch
    start_cpu: float
    end_wall: Optional[float] = None
    end_cpu: Optional[float] = None
    status: str = "ok"
    error: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def cpu_seconds(self) -> float:
        if self.end_cpu is None:
            return 0.0
        return self.end_cpu - self.start_cpu

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span (shown in both exports)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "start": self.start_wall,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Collects spans; one instance per profiled pipeline run."""

    enabled = True

    def __init__(self, name: str = "profile") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._epoch_wall = time.perf_counter()
        self._epoch_cpu = time.process_time()
        self.spans: List[Span] = []  # closed spans, in close order

    # -- internals ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            span_id=self._allocate_id(),
            name=name,
            parent_id=parent.span_id if parent is not None else None,
            thread=threading.current_thread().name,
            start_wall=time.perf_counter() - self._epoch_wall,
            start_cpu=time.process_time() - self._epoch_cpu,
            attrs=dict(attrs),
        )
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.status = "error"
            record.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record.end_wall = time.perf_counter() - self._epoch_wall
            record.end_cpu = time.process_time() - self._epoch_cpu
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # -- views -------------------------------------------------------------

    def closed(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def roots(self) -> List[Span]:
        return [s for s in self.closed() if s.parent_id is None]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.closed() if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.closed() if s.parent_id == span.span_id]

    def total_wall(self) -> float:
        return sum(s.wall_seconds for s in self.roots())

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "spans": [s.to_dict() for s in sorted(self.closed(),
                                                  key=lambda s: s.start_wall)],
        }


class _NullSpan:
    """Reusable no-op context manager; also a do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer(SpanTracer):
    """The disabled tracer: ``span`` is a shared empty context manager."""

    enabled = False

    def __init__(self) -> None:
        self.name = "<null>"
        self.spans = []

    def span(self, name: str, **attrs: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def closed(self) -> List[Span]:
        return []

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "spans": []}


NULL_TRACER = NullTracer()

_active: SpanTracer = NULL_TRACER


def get_tracer() -> SpanTracer:
    return _active


def set_tracer(tracer: Optional[SpanTracer]) -> SpanTracer:
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


def tracing_enabled() -> bool:
    return _active.enabled


@contextmanager
def use_tracer(tracer: Optional[SpanTracer]) -> Iterator[SpanTracer]:
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)


def span(name: str, **attrs: object):
    """Time a region against the active tracer (no-op when disabled)."""
    return _active.span(name, **attrs)
