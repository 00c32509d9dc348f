"""Render a paper-style §6 phase-breakdown report from a metrics snapshot.

Usage::

    PYTHONPATH=src python -m repro.obs.report [METRICS_demo.json] [--full]
        [--audit AUDIT.ndjson] [--trace TRACE.json]
        [--health HEALTH.json] [--flight DUMP.ndjson ...]

Reads a JSON registry snapshot (as written by ``snapshot_json`` or the
networked demo's ``--metrics-out``) and prints the per-phase latency
table; ``--full`` appends the complete counter/gauge/histogram listing.
``--audit`` additionally verifies and summarizes a hash-chained audit
log: every event kind present is counted (unknown kinds are listed, not
skipped), and control-plane events — ``view_change`` and
``equivocation`` — are itemized with their round, view, and leader.

``--trace`` reads a merged span log (the networked demo's
``--trace-out`` artifact, or a raw JSON list of span dicts) and prints
each round's stitched critical path plus the per-node phase breakdown.
``--health`` reads a JSON list of per-node health snapshots and prints
the merged deployment view.  ``--flight`` reads one or more flight
dumps (a header line, then the tail of a process's span log as NDJSON)
and renders their records.  Any of the three may be used without a
metrics snapshot.  Malformed input exits 1 with ``error: ...``.
"""

from __future__ import annotations

import json
import sys

from .export import flight_table, parse_flight_dump, phase_table, render_table

USAGE = (
    "usage: python -m repro.obs.report [SNAPSHOT.json] [--full] "
    "[--audit AUDIT.ndjson] [--trace TRACE.json] [--health HEALTH.json] "
    "[--flight DUMP.ndjson ...]"
)


def audit_table(entries: list[dict]) -> str:
    """Summarize audit entries: per-kind counts + consensus event detail.

    Counts are taken from the entries themselves rather than a fixed
    whitelist, so an event kind this build does not know about still
    shows up in the report instead of being silently dropped.
    """
    counts: dict[str, int] = {}
    for entry in entries:
        kind = str(entry.get("event", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    lines = [f"{'event':<16} {'count':>5}"]
    lines.append("-" * 22)
    for kind in sorted(counts):
        lines.append(f"{kind:<16} {counts[kind]:>5}")
    if not counts:
        lines.append("(empty log)")
    details = []
    for entry in entries:
        kind = entry.get("event")
        data = entry.get("data", {})
        if kind == "view_change":
            details.append(
                f"  view_change   round={data.get('round')} "
                f"views={data.get('views')} leader={data.get('leader')} "
                f"votes={data.get('votes')}"
            )
        elif kind == "equivocation":
            details.append(
                f"  equivocation  round={data.get('round')} "
                f"view={data.get('view')} leader={data.get('leader')} "
                f"reported_by={data.get('reported_by')}"
            )
        elif kind == "flight_dump":
            details.append(
                f"  flight_dump   reason={data.get('reason')} "
                f"path={data.get('path')}"
            )
    if details:
        lines.append("")
        lines.append("control-plane events:")
        lines.extend(details)
    return "\n".join(lines)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _trace_events_from(document) -> list[dict]:
    """A --trace file is either a raw span list or a demo artifact dict."""
    if isinstance(document, list):
        return document
    if isinstance(document, dict) and isinstance(document.get("events"), list):
        return document["events"]
    raise ValueError(
        "expected a JSON list of span events or an object with an "
        "'events' list"
    )


def _take_flag(argv: list[str], flag: str) -> str | None:
    """Pop ``flag VALUE`` from argv; None when absent, raises on no value."""
    if flag not in argv:
        return None
    at = argv.index(flag)
    if at + 1 >= len(argv):
        raise ValueError(f"{flag} needs an argument")
    value = argv[at + 1]
    del argv[at : at + 2]
    return value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    full = "--full" in argv
    argv = [a for a in argv if a != "--full"]
    try:
        audit_path = _take_flag(argv, "--audit")
        trace_path = _take_flag(argv, "--trace")
        health_path = _take_flag(argv, "--health")
        flight_paths = []
        while "--flight" in argv:
            flight_paths.append(_take_flag(argv, "--flight"))
    except ValueError:
        print(USAGE, file=sys.stderr)
        return 2
    has_extras = bool(trace_path or health_path or flight_paths or audit_path)
    if len(argv) > 1 or (len(argv) == 0 and not has_extras):
        print(USAGE, file=sys.stderr)
        return 2
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE, file=sys.stderr)
        return 2

    sections: list[str] = []
    try:
        if argv:
            snapshot = _load_json(argv[0])
            sections.append(
                "phase breakdown (§6 style)\n" + phase_table(snapshot)
            )
            if full:
                sections.append(render_table(snapshot))
        if trace_path is not None:
            from .critical import trace_table

            events = _trace_events_from(_load_json(trace_path))
            sections.append(
                "round traces (stitched critical paths)\n"
                + trace_table(events)
            )
        if health_path is not None:
            from .health import health_table

            snapshots = _load_json(health_path)
            if not isinstance(snapshots, list):
                raise ValueError("expected a JSON list of health snapshots")
            sections.append("node health\n" + health_table(snapshots))
        if flight_paths:
            dumps = []
            for path in flight_paths:
                with open(path, "r", encoding="utf-8") as fh:
                    dumps.append(parse_flight_dump(fh.read()))
            sections.append("flight dumps\n" + flight_table(dumps))
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if audit_path is not None:
        from repro.errors import CheckpointError
        from repro.persist.audit import read_audit_log

        try:
            entries = read_audit_log(audit_path)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sections.append("audit log (hash chain verified)\n" + audit_table(entries))

    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
