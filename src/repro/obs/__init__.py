"""Telemetry: metrics registry, span tracer, exporters, §6-style reports.

Dependency-free (standard library only; imports nothing from the rest of
``repro``), zero-cost when disabled (null variants), and deterministic
(injectable clocks, no RNG) — recording can never perturb protocol bytes.

A process keeps one event log, its tracer's ring of span records
(``Tracer.events``, the newest records kept); failure triggers are
zero-length notes in it, and a flight dump is its tail
(:func:`~repro.obs.export.flight_ndjson`).
"""

from .metrics import (
    LATENCY_EDGES_S,
    NULL_REGISTRY,
    SIZE_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    global_registry,
    set_global_registry,
    telemetry_env_enabled,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
)
from .export import (
    FLIGHT_EVENTS,
    PHASE_ORDER,
    events_ndjson,
    flight_ndjson,
    flight_table,
    parse_flight_dump,
    phase_table,
    render_table,
    snapshot_json,
)
from .propagate import (
    TraceContext,
    context_bytes,
    round_trace_id,
    span_ref,
)
from .critical import (
    assemble_traces,
    chrome_trace_json,
    critical_path,
    phase_breakdown,
    trace_table,
)
from .health import (
    health_table,
    merge_health,
    render_openmetrics,
    serve_health,
)

__all__ = [
    "FLIGHT_EVENTS",
    "LATENCY_EDGES_S",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "PHASE_ORDER",
    "SIZE_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "TraceContext",
    "assemble_traces",
    "chrome_trace_json",
    "context_bytes",
    "critical_path",
    "events_ndjson",
    "flight_ndjson",
    "flight_table",
    "global_registry",
    "health_table",
    "merge_health",
    "parse_flight_dump",
    "phase_breakdown",
    "phase_table",
    "render_openmetrics",
    "render_table",
    "round_trace_id",
    "serve_health",
    "set_global_registry",
    "snapshot_json",
    "span_ref",
    "telemetry_env_enabled",
    "trace_table",
]
