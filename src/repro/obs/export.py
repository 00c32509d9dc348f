"""Exporters: JSON snapshot, human-readable tables, NDJSON event log.

Everything here is a function over a registry snapshot (the plain
dictionary from :meth:`MetricsRegistry.snapshot`) or a span-record list,
so exports work equally on a live in-process registry, a merged
cross-process view, or a snapshot loaded back from disk.

A flight dump is the tail of a process's event log (``tracer.events``):
a header line, then the newest :data:`FLIGHT_EVENTS` records as NDJSON
span dicts.  The runtime writes one into the session's ``flight_dir``
on each failure trigger; :func:`parse_flight_dump` and
:func:`flight_table` read it back for ``repro.obs.report --flight``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping, Sequence
from itertools import islice

from .metrics import Histogram, check_snapshot
from .trace import SpanRecord

#: Canonical phase ordering for the §6-style breakdown table; phases not
#: listed here sort alphabetically after these.
PHASE_ORDER = (
    "build", "submit", "inventory", "commit", "reveal",
    "verify", "certify", "output", "blame", "checkpoint",
)


def snapshot_json(snapshot: Mapping, indent: int | None = 2) -> str:
    """Stable JSON text for a snapshot (sorted keys, trailing newline)."""
    return json.dumps(snapshot, sort_keys=True, indent=indent) + "\n"


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def events_ndjson(events: Iterable[SpanRecord]) -> str:
    """Newline-delimited JSON, one compact object per finished span."""
    lines = [_compact(record.as_dict()) for record in events]
    return "\n".join(lines) + ("\n" if lines else "")


def _hydrate(name: str, state: Mapping) -> Histogram:
    histogram = Histogram(name, tuple(state["edges"]))
    histogram.merge(state)
    return histogram


def span_event(event) -> dict:
    """A span dict as :meth:`SpanRecord.as_dict` writes it, checked.

    Missing fields take their defaults; anything that is not a span dict
    raises :class:`ValueError`, so every reader of span logs and flight
    dumps is total over untrusted JSON.
    """
    if not isinstance(event, Mapping):
        raise ValueError(f"span event must be an object, got {type(event).__name__}")
    attrs = event.get("attrs") or {}
    if not isinstance(attrs, Mapping):
        raise ValueError("span attrs must be a JSON object")
    round_number = attrs.get("round")
    if round_number is not None and (
        not isinstance(round_number, int) or isinstance(round_number, bool)
    ):
        raise ValueError(f"span round must be an integer, got {round_number!r}")
    try:
        parent_id = event.get("parent_id")
        return {
            "span_id": int(event.get("span_id", 0)),
            "parent_id": None if parent_id is None else int(parent_id),
            "name": str(event.get("name", "")),
            "attrs": dict(attrs),
            "start": float(event.get("start", 0.0)),
            "end": float(event.get("end", 0.0)),
        }
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed span event: {exc}") from None


#: Records a flight dump holds: the newest of the process's event log.
FLIGHT_EVENTS = 256


def flight_ndjson(node: str, reason: str, events: Sequence[SpanRecord]) -> str:
    """A flight dump of ``events``: a header line, then its tail as NDJSON."""
    tail = list(islice(reversed(events), FLIGHT_EVENTS))[::-1]
    header = {
        "flight": node,
        "reason": reason,
        "events": len(tail),
        "capacity": FLIGHT_EVENTS,
    }
    return _compact(header) + "\n" + events_ndjson(tail)


def write_flight_dump(
    directory: str | None,
    node: str,
    index: int,
    reason: str,
    events: Sequence[SpanRecord],
) -> str | None:
    """Write ``flight-<node>-<index>-<reason>.ndjson`` into ``directory``.

    Returns the path written, or ``None`` when no directory is set, the
    log is empty (telemetry off) or the write failed: dumps are
    best-effort diagnostics, and a full disk must not take a protocol
    node down.
    """
    if not directory or not events:
        return None
    path = os.path.join(directory, f"flight-{node}-{index}-{reason}.ndjson")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(flight_ndjson(node, reason, events))
    except OSError:
        return None
    return path


def parse_flight_dump(text: str) -> tuple[dict, list[dict]]:
    """Dump text → (header, span dicts); :class:`ValueError` if malformed."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty flight dump")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or "flight" not in header:
        raise ValueError("flight dump missing header line")
    return header, [span_event(json.loads(line)) for line in lines[1:]]


def flight_table(dumps: Iterable[tuple[dict, list[dict]]]) -> str:
    """Render parsed flight dumps for ``repro.obs.report --flight``."""
    sections: list[str] = []
    for header, events in dumps:
        title = (
            f"flight {header.get('flight', '?')}  reason={header.get('reason', '?')}  "
            f"events={len(events)}"
        )
        body = []
        for span in events:
            attrs = {k: v for k, v in span["attrs"].items() if k != "node"}
            label = span["name"]
            if "name" in attrs:
                label += f".{attrs.pop('name')}"
            detail = _compact(attrs)
            if len(detail) > 60:
                detail = detail[:57] + "..."
            body.append((
                str(span["span_id"]),
                label,
                f"{(span['end'] - span['start']) * 1e3:.3f}",
                detail,
            ))
        sections.append(
            title + "\n" + _render_rows(("span", "event", "ms", "attrs"), body)
        )
    return "\n\n".join(sections) if sections else "(no flight dumps)"


def _phase_sort_key(phase: str):
    try:
        return (0, PHASE_ORDER.index(phase))
    except ValueError:
        return (1, phase)


def phase_table(snapshot: Mapping, prefix: str = "span.phase.") -> str:
    """Paper-style (§6) per-phase latency breakdown.

    Rows come from every histogram named ``<prefix><phase>`` in the
    snapshot; durations are reported in milliseconds with bucket-resolution
    p50/p90 and exact mean/max.
    """
    check_snapshot(snapshot)
    rows = []
    for name, state in sorted(snapshot.get("histograms", {}).items()):
        if not name.startswith(prefix):
            continue
        phase = name[len(prefix):]
        histogram = _hydrate(name, state)
        if not histogram.count:
            continue
        rows.append((
            phase,
            histogram.count,
            histogram.mean * 1e3,
            histogram.quantile(0.5) * 1e3,
            histogram.quantile(0.9) * 1e3,
            (histogram.max or 0.0) * 1e3,
        ))
    if not rows:
        return "(no phase timings recorded)"
    rows.sort(key=lambda row: _phase_sort_key(row[0]))
    header = ("phase", "count", "mean ms", "p50 ms", "p90 ms", "max ms")
    body = [
        (phase, str(count), f"{mean:.3f}", f"{p50:.3f}", f"{p90:.3f}", f"{mx:.3f}")
        for phase, count, mean, p50, p90, mx in rows
    ]
    return _render_rows(header, body)


def render_table(snapshot: Mapping) -> str:
    """Every counter, gauge, and histogram in one readable listing."""
    check_snapshot(snapshot)
    sections = []
    counters = snapshot.get("counters", {})
    if counters:
        body = [(n, str(v)) for n, v in sorted(counters.items())]
        sections.append("counters\n" + _render_rows(("name", "value"), body))
    gauges = snapshot.get("gauges", {})
    if gauges:
        body = [(n, str(v)) for n, v in sorted(gauges.items())]
        sections.append("gauges\n" + _render_rows(("name", "value"), body))
    histograms = snapshot.get("histograms", {})
    if histograms:
        body = []
        for name, state in sorted(histograms.items()):
            histogram = _hydrate(name, state)
            body.append((
                name,
                str(histogram.count),
                f"{histogram.mean:.6g}",
                f"{histogram.quantile(0.5):.6g}",
                f"{histogram.quantile(0.9):.6g}",
                f"{histogram.max:.6g}" if histogram.max is not None else "-",
            ))
        sections.append(
            "histograms\n"
            + _render_rows(("name", "count", "mean", "p50", "p90", "max"), body)
        )
    if not sections:
        return "(empty snapshot)"
    return "\n\n".join(sections)


def _render_rows(header: tuple[str, ...], body: list[tuple[str, ...]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)
