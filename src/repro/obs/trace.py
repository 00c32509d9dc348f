"""Structured span tracer with an injectable monotonic clock.

A :class:`Tracer` hands out :class:`Span` objects::

    with tracer.span("round", round=r) as round_span:
        with round_span.child("phase", name="commit"):
            ...

Finished spans append a :class:`SpanRecord` to ``tracer.events`` and
fold their duration into the tracer's metrics registry under
``span.<name>`` — or ``span.<name>.<attrs["name"]>`` when the span
carries a ``name`` attribute, so the phase children above land in
``span.phase.commit``-style histograms that the §6 report renders.
``tracer.events`` is the process's one event log, a ring that keeps the
newest records; a flight dump is its tail.  :meth:`Tracer.note` records a
point event (a failure trigger) as a zero-length span.

Determinism: span ids are sequential in creation order and the clock is
injectable, so two runs driven by the same fake clock produce
byte-identical event logs.  Tracing reads the clock and appends to a
ring — it never touches protocol bytes or RNG streams.  The
:data:`NULL_TRACER` variant discards everything for zero-cost-disabled.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .metrics import LATENCY_EDGES_S, NULL_REGISTRY

#: Records the event log keeps; beyond it each new record evicts the
#: oldest (counted in the registry under ``trace.events_dropped``), and
#: every span still feeds the registry.
DEFAULT_MAX_EVENTS = 65536


@dataclass
class SpanRecord:
    """One finished span: identity, lineage, attributes, and timing."""

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def metric_key(self) -> str:
        """Registry histogram name for this span's duration."""
        if "name" in self.attrs:
            return f"span.{self.name}.{self.attrs['name']}"
        return f"span.{self.name}"

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "start": self.start,
            "end": self.end,
        }


class Span:
    """A live span; times itself from creation until :meth:`finish`.

    Usable as a context manager; :meth:`child` opens a nested span.
    Finishing twice is a no-op, so ``with`` plus an explicit ``finish``
    inside the block is safe.
    """

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "attrs", "start", "_done")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: int | None,
                 name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = tracer.clock()
        self._done = False

    def child(self, name: str, /, **attrs) -> "Span":
        return self._tracer._start(name, attrs, parent_id=self.span_id)

    def finish(self) -> SpanRecord | None:
        if self._done:
            return None
        self._done = True
        return self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()


class Tracer:
    """Span factory bound to a registry and a (possibly fake) clock."""

    enabled = True

    def __init__(self, registry=None, clock=None,
                 max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.clock = clock if clock is not None else time.perf_counter
        self.events: deque[SpanRecord] = deque(maxlen=max_events)
        self._next_id = 1

    def span(self, name: str, /, **attrs) -> Span:
        """Open a root span."""
        return self._start(name, attrs, parent_id=None)

    def allocate_id(self) -> int:
        """Reserve a span id without opening a span.

        Lets message-driven code hand out a parent id at an event's
        *start* (so children recorded along the way can reference it) and
        fill in the parent record later with :meth:`record`.
        """
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def record(
        self,
        name: str,
        start: float,
        end: float,
        /,
        parent_id: int | None = None,
        span_id: int | None = None,
        **attrs,
    ) -> SpanRecord:
        """Append a span with explicit timestamps (no live ``Span``).

        The explicit-time path exists for distributed stitching: node
        daemons time phase boundaries on a wall clock that is comparable
        across processes and record the finished interval in one shot.
        ``span_id`` may come from an earlier :meth:`allocate_id`;
        durations feed the same registry histograms as live spans.
        """
        record = SpanRecord(
            span_id=span_id if span_id is not None else self.allocate_id(),
            parent_id=parent_id,
            name=name,
            attrs=attrs,
            start=start,
            end=end,
        )
        if len(self.events) == self.events.maxlen:
            self.registry.counter("trace.events_dropped").inc()
        self.events.append(record)
        self.registry.histogram(record.metric_key(), LATENCY_EDGES_S).observe(
            record.duration
        )
        return record

    def note(self, event: str, /, **attrs) -> SpanRecord:
        """Record a point event: a zero-length span at the current time."""
        now = self.clock()
        return self.record(event, now, now, **attrs)

    def _start(self, name: str, attrs: dict, parent_id: int | None) -> Span:
        return Span(self, self.allocate_id(), parent_id, name, attrs)

    def _finish(self, span: Span) -> SpanRecord:
        return self.record(
            span.name,
            span.start,
            self.clock(),
            parent_id=span.parent_id,
            span_id=span.span_id,
            **span.attrs,
        )

    def clear(self) -> None:
        self.events.clear()
        self._next_id = 1


class _NullSpan:
    """The disabled span: children are itself, finishing does nothing."""

    __slots__ = ()

    span_id = 0
    parent_id = None
    name = ""
    attrs: dict = {}
    start = 0.0

    def child(self, name: str, /, **attrs) -> "_NullSpan":
        return self

    def finish(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: no clock reads, no records, no registry."""

    enabled = False
    events: tuple = ()

    def span(self, name: str, /, **attrs) -> _NullSpan:
        return NULL_SPAN

    def allocate_id(self) -> int:
        return 0

    def record(self, name, start, end, /, parent_id=None, span_id=None, **attrs):
        return None

    def note(self, event, /, **attrs):
        return None

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
