"""Trace assembly and critical-path analysis over merged span logs.

Input everywhere is a list of plain span dictionaries
(:meth:`~repro.obs.trace.SpanRecord.as_dict`), typically the merged
cross-process log from ``NetworkedSession.trace_events()`` — every
process's spans concatenated, each carrying ``node`` / ``trace_id`` /
``parent_ref`` attributes per the stitching model in
:mod:`repro.obs.propagate`.  Spans without an explicit ``trace_id``
(the in-process session's tracer) are stitched by walking local parent
links to a root ``round`` span, so one code path serves both runtimes.

Three consumers:

* :func:`critical_path` — walk one round's trace backward from the
  coordinator span's end, attributing every moment of round latency to
  the (node, phase) doing the latest-finishing work at that moment (or
  to coordination when no phase covers it).  Segments are disjoint, sum
  exactly to the round duration, and are deterministic for a fixed log.
* :func:`chrome_trace_json` — Chrome trace-event / Perfetto JSON, one
  track per node, loadable in ``chrome://tracing`` or ui.perfetto.dev.
* :func:`trace_table` — the ``repro.obs.report --trace`` rendering: per
  round the critical path, plus the §6-style phase breakdown per node.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from .export import _render_rows, span_event
from .propagate import span_ref

#: Spans shorter than this (seconds) are dropped from critical-path
#: candidacy — they are timestamps, not work, and would fragment the
#: attribution into noise.
MIN_SEGMENT_S = 0.0


def _normalize(event: Mapping) -> dict:
    """One span dict → the flat form assembly works on (:class:`ValueError`
    for anything that is not a span dict)."""
    span = span_event(event)
    attrs = span["attrs"]
    node = str(attrs.get("node", "local"))
    parent_id = span["parent_id"]
    parent = span_ref(node, parent_id) if parent_id is not None else None
    trace_id = attrs.get("trace_id")
    return {
        "ref": span_ref(node, span["span_id"]),
        "parent": parent,
        "parent_ref": attrs.get("parent_ref"),
        "node": node,
        "name": span["name"],
        "phase": str(attrs.get("name", span["name"])),
        "trace_id": None if trace_id is None else str(trace_id),
        "round": attrs.get("round"),
        "start": span["start"],
        "end": span["end"],
    }


def assemble_traces(events: Iterable[Mapping]) -> dict[str, list[dict]]:
    """Group merged span events into per-trace span lists.

    A span's trace is its own ``trace_id`` attribute, or — for tracers
    that only link locally — the trace of its nearest ancestor via local
    parent links; a local ancestry that ends at a ``round`` root without
    any trace id gets the synthetic id ``local-round-<n>``.  Spans that
    resolve to no trace (pure local instrumentation like crypto spans
    outside any round) are omitted.  Within a trace, spans sort by
    (start, end, node, ref) so assembly is deterministic regardless of
    merge order.
    """
    spans = [_normalize(e) for e in events]
    by_ref = {s["ref"]: s for s in spans}

    def resolve(span: dict, hops: int = 0) -> str | None:
        if span["trace_id"] is not None:
            return span["trace_id"]
        if hops > len(by_ref):
            return None  # defensive: a cyclic parent link must not hang
        parent = by_ref.get(span["parent"]) if span["parent"] else None
        if parent is not None:
            return resolve(parent, hops + 1)
        if span["name"] == "round" and span["round"] is not None:
            return f"local-round-{span['round']}"
        return None

    traces: dict[str, list[dict]] = {}
    for span in spans:
        trace_id = resolve(span)
        if trace_id is None:
            continue
        traces.setdefault(trace_id, []).append(dict(span, trace_id=trace_id))
    for members in traces.values():
        members.sort(key=lambda s: (s["start"], s["end"], s["node"], s["ref"]))
    return traces


def trace_root(spans: list[dict]) -> dict | None:
    """The coordinator-side round span: no parent, no remote parent_ref."""
    roots = [
        s
        for s in spans
        if s["name"] == "round" and s["parent"] is None and not s["parent_ref"]
    ]
    if not roots:
        return None
    # Widest window wins (the coordinator span encloses the node spans).
    return max(roots, key=lambda s: (s["end"] - s["start"], s["ref"]))


def critical_path(spans: list[dict]) -> list[dict]:
    """Attribute one trace's round latency to (node, phase) segments.

    Backward greedy walk from the root span's end: at each cursor time
    the phase span with the latest end not after the cursor (and real
    overlap with the remaining window) claims the segment back to its
    start; stretches no phase covers are charged to
    ``(coordinator_node, "coordination")``.  Segments come back in
    chronological order and sum exactly to the root duration.
    """
    root = trace_root(spans)
    if root is None:
        return []
    candidates = [
        s
        for s in spans
        if s is not root
        and s["name"] == "phase"
        and s["end"] - s["start"] > MIN_SEGMENT_S
        and s["end"] > root["start"]
        and s["start"] < root["end"]
    ]
    segments: list[dict] = []

    def charge(node: str, phase: str, start: float, end: float) -> None:
        if end > start:
            segments.append(
                {
                    "node": node,
                    "phase": phase,
                    "start": start,
                    "end": end,
                    "seconds": end - start,
                }
            )

    cursor = root["end"]
    while cursor > root["start"]:
        covering = [
            s
            for s in candidates
            if min(s["end"], cursor) > max(s["start"], root["start"])
            and s["start"] < cursor
        ]
        if not covering:
            charge(root["node"], "coordination", root["start"], cursor)
            break
        best = max(covering, key=lambda s: (min(s["end"], cursor), -s["start"], s["node"], s["ref"]))
        top = min(best["end"], cursor)
        if top < cursor:
            # Nothing ran between top and the cursor: coordination gap.
            charge(root["node"], "coordination", top, cursor)
        charge(best["node"], best["phase"], max(best["start"], root["start"]), top)
        cursor = max(best["start"], root["start"])
    segments.reverse()
    return segments


def phase_breakdown(spans: list[dict]) -> dict[tuple[str, str], dict]:
    """Aggregate (node, phase) → {count, seconds} over one trace's spans."""
    table: dict[tuple[str, str], dict] = {}
    for s in spans:
        if s["name"] != "phase":
            continue
        key = (s["node"], s["phase"])
        entry = table.setdefault(key, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += s["end"] - s["start"]
    return table


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ---------------------------------------------------------------------------


def chrome_trace_json(events: Iterable[Mapping]) -> str:
    """Merged span events → Chrome trace-event JSON (Perfetto-loadable).

    One ``pid`` per node (named via metadata events), timestamps
    normalized to the earliest span start in microseconds.  Output is
    canonical (sorted keys, fixed separators, sorted event order), so two
    identical logs export to byte-identical JSON — the determinism test's
    contract.
    """
    spans = [_normalize(e) for e in events]
    if not spans:
        return json.dumps({"traceEvents": []}, sort_keys=True, separators=(",", ":"))
    t0 = min(s["start"] for s in spans)
    nodes = sorted({s["node"] for s in spans})
    pid = {node: i + 1 for i, node in enumerate(nodes)}
    trace_events: list[dict] = []
    for node in nodes:
        trace_events.append(
            {
                "args": {"name": node},
                "name": "process_name",
                "ph": "M",
                "pid": pid[node],
                "tid": 0,
            }
        )
    for s in sorted(spans, key=lambda s: (s["start"], s["end"], s["node"], s["ref"])):
        label = s["phase"] if s["name"] == "phase" else s["name"]
        args = {"ref": s["ref"]}
        if s["trace_id"] is not None:
            args["trace_id"] = s["trace_id"]
        if s["round"] is not None:
            args["round"] = s["round"]
        if s["parent_ref"]:
            args["parent_ref"] = s["parent_ref"]
        trace_events.append(
            {
                "args": args,
                "cat": s["name"] or "span",
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "name": label,
                "ph": "X",
                "pid": pid[s["node"]],
                "tid": 0,
                "ts": round((s["start"] - t0) * 1e6, 3),
            }
        )
    return json.dumps(
        {"traceEvents": trace_events}, sort_keys=True, separators=(",", ":")
    )


# ---------------------------------------------------------------------------
# The --trace report table
# ---------------------------------------------------------------------------


def trace_table(events: Iterable[Mapping]) -> str:
    """Per-round critical paths plus the per-node phase breakdown."""
    traces = assemble_traces(events)
    if not traces:
        return "(no round traces recorded)"
    sections: list[str] = []
    totals: dict[tuple[str, str], dict] = {}
    ordered = sorted(
        traces.items(),
        key=lambda item: (
            trace_root(item[1])["round"]
            if trace_root(item[1]) is not None
            and trace_root(item[1])["round"] is not None
            else 1 << 30,
            item[0],
        ),
    )
    for trace_id, spans in ordered:
        root = trace_root(spans)
        segments = critical_path(spans)
        for key, entry in phase_breakdown(spans).items():
            total = totals.setdefault(key, {"count": 0, "seconds": 0.0})
            total["count"] += entry["count"]
            total["seconds"] += entry["seconds"]
        if root is None or not segments:
            continue
        duration = root["end"] - root["start"]
        nodes = {s["node"] for s in spans}
        header = (
            f"trace {trace_id}  round={root['round']}  "
            f"nodes={len(nodes)}  total={duration * 1e3:.3f}ms"
        )
        body = [
            (
                seg["node"],
                seg["phase"],
                f"{seg['seconds'] * 1e3:.3f}",
                f"{100.0 * seg['seconds'] / duration:.1f}%" if duration else "-",
            )
            for seg in segments
        ]
        sections.append(
            header
            + "\ncritical path:\n"
            + _render_rows(("node", "phase", "ms", "share"), body)
        )
    if totals:
        body = [
            (node, phase, str(v["count"]), f"{v['seconds'] * 1e3:.3f}")
            for (node, phase), v in sorted(totals.items())
        ]
        sections.append(
            "phase breakdown per node (§6 style, all traces):\n"
            + _render_rows(("node", "phase", "count", "total ms"), body)
        )
    return "\n\n".join(sections) if sections else "(no round traces recorded)"
