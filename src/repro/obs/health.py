"""Per-node health snapshots, OpenMetrics rendering, and a status server.

A health snapshot is a small plain dict each node can produce cheaply on
demand — identity fields (``node``, ``role``), liveness gauges
(``rounds_per_sec``, ``inflight``, ``view``, ``reconnects``, the
live-member ``anonymity_set``), and a ``generation`` counter that bumps
on every crash-recovery restore.  This module turns those dicts (plus an
optional metrics-registry snapshot) into:

* :func:`render_openmetrics` — OpenMetrics text exposition, what the
  ``ServerNode`` status endpoint serves at ``/metrics``;
* :func:`merge_health` / :func:`health_table` — the deployment view that
  ``repro.obs.report --health`` prints;
* :func:`serve_health` — a dependency-free asyncio HTTP responder for
  ``/metrics`` (OpenMetrics) and ``/healthz`` (one-line liveness).

The HTTP server is deliberately minimal: HTTP/1.0-style, GET only,
close-after-response — enough for ``curl`` and a Prometheus scraper,
with no framework dependency.
"""

from __future__ import annotations

import asyncio
import json
import re
from collections.abc import Iterable, Mapping

from .export import _render_rows

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Health-dict keys exported as gauges (everything numeric and per-node).
GAUGE_FIELDS = (
    "rounds_done",
    "rounds_per_sec",
    "inflight",
    "view",
    "reconnects",
    "generation",
    "anonymity_set",
    "uptime_s",
    "recv_count",
)


def metric_name(name: str, prefix: str = "dissent") -> str:
    """Dotted internal metric name → OpenMetrics-safe ``prefix_name``."""
    return f"{prefix}_{_NAME_OK.sub('_', name)}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(pairs.items())
    )
    return "{" + inner + "}"


def render_openmetrics(
    health: Mapping,
    snapshot: Mapping | None = None,
    prefix: str = "dissent",
) -> str:
    """One node's health dict (+ optional registry snapshot) → OpenMetrics.

    Counters get the ``_total`` suffix, histograms expand to cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``, and every series
    carries a ``node`` label so a scraper can aggregate a deployment.
    Ends with ``# EOF`` per the OpenMetrics exposition format.
    """
    node = str(health.get("node", "local"))
    labels = _labels({"node": node})
    lines: list[str] = []

    info_name = metric_name("node.info", prefix)
    lines.append(f"# TYPE {info_name} gauge")
    lines.append(
        info_name
        + _labels({"node": node, "role": str(health.get("role", "?"))})
        + " 1"
    )
    for key in GAUGE_FIELDS:
        if key not in health:
            continue
        name = metric_name(f"health.{key}", prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{labels} {_fmt(health[key])}")

    if snapshot:
        for cname, value in sorted((snapshot.get("counters") or {}).items()):
            name = metric_name(cname, prefix) + "_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{labels} {_fmt(value)}")
        for gname, value in sorted((snapshot.get("gauges") or {}).items()):
            name = metric_name(gname, prefix)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{labels} {_fmt(value)}")
        for hname, state in sorted((snapshot.get("histograms") or {}).items()):
            name = metric_name(hname, prefix)
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            edges = state.get("edges", ())
            counts = state.get("counts", ())
            for edge, bucket in zip(edges, counts):
                cumulative += bucket
                lines.append(
                    name
                    + "_bucket"
                    + _labels({"le": repr(float(edge)), "node": node})
                    + f" {cumulative}"
                )
            lines.append(
                name
                + "_bucket"
                + _labels({"le": "+Inf", "node": node})
                + f" {state.get('count', cumulative)}"
            )
            lines.append(f"{name}_sum{labels} {_fmt(state.get('sum', 0.0))}")
            lines.append(f"{name}_count{labels} {_fmt(state.get('count', 0))}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _health_dicts(snapshots: Iterable[Mapping]) -> list[dict]:
    """Health snapshots as dicts; :class:`ValueError` for anything else."""
    nodes = [dict(s) if isinstance(s, Mapping) else None for s in snapshots]
    for node in nodes:
        if node is None or not all(
            isinstance(node.get(key, 0), (int, float))
            and not isinstance(node.get(key, 0), bool)
            for key in GAUGE_FIELDS
        ):
            raise ValueError("health snapshots must be objects with numeric gauges")
    return nodes


def merge_health(snapshots: Iterable[Mapping]) -> dict:
    """Per-node health dicts → one deployment-level view.

    Sums throughput and load, takes the deployment view number as the
    max (consensus guarantees live nodes converge), and reports the
    anonymity set as the *minimum* across servers — the paper's
    conservative reading: the set a client actually gets is the one the
    slowest-converging server will certify.
    """
    nodes = _health_dicts(snapshots)
    anonymity = [s["anonymity_set"] for s in nodes if "anonymity_set" in s]
    return {
        "nodes": len(nodes),
        "servers": sum(1 for s in nodes if s.get("role") == "server"),
        "clients": sum(1 for s in nodes if s.get("role") == "client"),
        "rounds_per_sec": min(
            (s.get("rounds_per_sec", 0.0) for s in nodes), default=0.0
        ),
        "inflight": sum(s.get("inflight", 0) for s in nodes),
        "view": max((s.get("view", 0) for s in nodes), default=0),
        "reconnects": sum(s.get("reconnects", 0) for s in nodes),
        "anonymity_set": min(anonymity) if anonymity else 0,
    }


def health_table(snapshots: Iterable[Mapping]) -> str:
    """Render per-node rows plus the merged deployment line."""
    nodes = _health_dicts(snapshots)
    if not nodes:
        return "(no health snapshots)"
    body = [
        (
            str(s.get("node", "?")),
            str(s.get("role", "?")),
            f"{s.get('rounds_per_sec', 0.0):.2f}",
            str(s.get("inflight", 0)),
            str(s.get("view", 0)),
            str(s.get("reconnects", 0)),
            str(s.get("generation", 0)),
            str(s.get("anonymity_set", "-")),
        )
        for s in sorted(nodes, key=lambda s: str(s.get("node", "")))
    ]
    merged = merge_health(nodes)
    table = _render_rows(
        ("node", "role", "rounds/s", "inflight", "view", "reconn", "gen", "anon-set"),
        body,
    )
    summary = (
        f"deployment: nodes={merged['nodes']} "
        f"(servers={merged['servers']} clients={merged['clients']})  "
        f"rounds/s={merged['rounds_per_sec']:.2f}  view={merged['view']}  "
        f"reconnects={merged['reconnects']}  anonymity-set={merged['anonymity_set']}"
    )
    return table + "\n" + summary


# ---------------------------------------------------------------------------
# The status endpoint
# ---------------------------------------------------------------------------


async def _respond(writer: asyncio.StreamWriter, status: str, body: str,
                   content_type: str) -> None:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode("ascii") + payload)
    await writer.drain()


async def serve_health(get_metrics, get_health, host: str = "127.0.0.1",
                       port: int = 0):
    """Start the status server; returns the listening ``asyncio.Server``.

    ``get_metrics()`` must return OpenMetrics text; ``get_health()`` a
    health dict (served as JSON at ``/healthz``).  Port 0 binds an
    ephemeral port — read it back from ``server.sockets``.
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request.decode("latin-1", "replace").split()
            target = parts[1] if len(parts) >= 2 else "/"
            # Drain (and ignore) the request headers.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if target.startswith("/metrics"):
                await _respond(
                    writer, "200 OK", get_metrics(),
                    "application/openmetrics-text; version=1.0.0; charset=utf-8",
                )
            elif target.startswith("/healthz"):
                body = json.dumps(get_health(), sort_keys=True) + "\n"
                await _respond(writer, "200 OK", body, "application/json")
            else:
                await _respond(writer, "404 Not Found", "not found\n", "text/plain")
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    return await asyncio.start_server(handle, host=host, port=port)


def health_port_for(base_port: int, index: int) -> int:
    """The status port for server ``index`` given the policy base port."""
    return base_port + index if base_port > 0 else 0
