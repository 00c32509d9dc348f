"""Distributed tracing and the health plane, end to end.

Covers the wire-level trace context, cross-process stitching and
critical paths over every transport and both group backends, fake-clock
determinism of the Chrome trace export, the flight recorder (unit and
failure-triggered dumps), OpenMetrics rendering plus the live status
endpoint, the telemetry dedup fix, the new Policy knobs, and the report
CLI's --trace/--health/--flight flags.
"""

import json
import socket
import urllib.request

import pytest

from repro.core.config import GroupDefinition, Policy
from repro.core.session import DissentSession
from repro.errors import ConfigError, ProtocolError
from repro.net.runner import COORDINATOR, NetworkedSession, dedupe_telemetry_replies
from repro.obs.critical import (
    assemble_traces,
    chrome_trace_json,
    critical_path,
    phase_breakdown,
    trace_table,
    trace_root,
)
from repro.obs.flight import FlightRecorder, flight_table, parse_flight_dump
from repro.obs.health import (
    health_port_for,
    health_table,
    merge_health,
    metric_name,
    render_openmetrics,
)
from repro.obs.propagate import (
    TraceContext,
    context_bytes,
    round_trace_id,
    span_ref,
)


# ---------------------------------------------------------------------------
# Trace context wire format
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_round_trip(self):
        context = TraceContext("ab12cd34ef56ab12", "coord/7", 3)
        parsed = TraceContext.from_bytes(context.to_bytes())
        assert parsed == context

    def test_child_rebases_parent_ref(self):
        context = TraceContext("ab12cd34ef56ab12", "coord/7", 3)
        child = context.child("server-1", 42)
        assert child.trace_id == context.trace_id
        assert child.round_number == 3
        assert child.span_ref == "server-1/42"

    def test_empty_and_malformed_parse_to_none(self):
        assert TraceContext.from_bytes(b"") is None
        assert TraceContext.from_bytes(b"\xff\x00garbage") is None
        assert context_bytes(None) == b""

    def test_trace_id_is_stable_per_group_and_round(self):
        a = round_trace_id(b"group-a", 1)
        assert a == round_trace_id(b"group-a", 1)
        assert a != round_trace_id(b"group-a", 2)
        assert a != round_trace_id(b"group-b", 1)

    def test_span_ref_format(self):
        assert span_ref("server-0", 9) == "server-0/9"


# ---------------------------------------------------------------------------
# Policy knobs (satellite: validation, serialization, checkpoint)
# ---------------------------------------------------------------------------


class TestObservabilityPolicyKnobs:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Policy(trace_sampling="yes")
        with pytest.raises(ConfigError):
            Policy(flight_recorder_events=-1)
        with pytest.raises(ConfigError):
            Policy(health_port=-1)
        with pytest.raises(ConfigError):
            Policy(health_port=70000)

    def test_serialization_round_trip(self):
        policy = Policy(
            trace_sampling=False, flight_recorder_events=32, health_port=18080
        )
        data = policy.to_dict()
        assert data["trace_sampling"] is False
        assert data["flight_recorder_events"] == 32
        assert data["health_port"] == 18080
        assert Policy.from_dict(data) == policy

    def test_knobs_survive_canonical_definition_bytes(self):
        """The knobs ride GroupDefinition serialization — what durable
        checkpoints persist — so a restored session keeps them."""
        session = DissentSession.build(
            num_servers=2,
            num_clients=2,
            seed=7,
            policy=Policy(
                trace_sampling=False, flight_recorder_events=8, health_port=9100
            ),
        )
        blob = session.definition.canonical_bytes()
        restored = GroupDefinition.from_canonical_bytes(blob)
        assert restored.policy.trace_sampling is False
        assert restored.policy.flight_recorder_events == 8
        assert restored.policy.health_port == 9100


# ---------------------------------------------------------------------------
# Telemetry dedup across reconnects (satellite fix)
# ---------------------------------------------------------------------------


class TestTelemetryDedup:
    def test_duplicate_node_generation_counted_once(self):
        snap = {"counters": {"c": 5}, "gauges": {}, "histograms": {}}
        wrapped = {"node": "server-0", "generation": 0, "snapshot": snap}
        merged = dedupe_telemetry_replies([wrapped, dict(wrapped)])
        assert merged == [snap]

    def test_new_generation_is_fresh(self):
        snap = {"counters": {"c": 5}, "gauges": {}, "histograms": {}}
        replies = [
            {"node": "server-0", "generation": 0, "snapshot": snap},
            {"node": "server-0", "generation": 1, "snapshot": snap},
        ]
        assert dedupe_telemetry_replies(replies) == [snap, snap]

    def test_distinct_nodes_both_merge(self):
        snap = {"counters": {"c": 1}, "gauges": {}, "histograms": {}}
        replies = [
            {"node": "server-0", "generation": 0, "snapshot": snap},
            {"node": "server-1", "generation": 0, "snapshot": snap},
        ]
        assert len(dedupe_telemetry_replies(replies)) == 2

    @pytest.mark.parametrize("missing", [None, "node", "generation", "snapshot"])
    def test_unwrapped_replies_rejected(self, missing):
        snap = {"counters": {"c": 2}, "gauges": {}, "histograms": {}}
        reply = {"node": "server-0", "generation": 0, "snapshot": snap}
        if missing is None:
            reply = snap  # a bare snapshot
        else:
            del reply[missing]
        with pytest.raises(ProtocolError, match="telemetry reply"):
            dedupe_telemetry_replies([reply])

    def test_restarted_node_generation_bumps_in_health(self, tmp_path):
        with NetworkedSession.build(
            num_servers=2,
            num_clients=3,
            seed=31,
            mode="loopback",
            checkpoint_dir=str(tmp_path),
        ) as session:
            session.setup()
            session.run_rounds(1)
            victim = session.node_name("client", 1)
            session.kill_node("client", 1)
            session.wait_dark(victim, timeout=10.0)
            session.restart_node("client", 1)
            session.wait_live(victim, timeout=10.0)
            session.run_rounds(1)
            health = {h["node"]: h for h in session.health()}
            snapshot = session.metrics()
        # The restored node announces a new registry generation...
        assert health[victim]["generation"] == 1
        # ...and the merged view still counts coordinator rounds exactly.
        assert snapshot["counters"]["session.rounds_completed"] == 2


# ---------------------------------------------------------------------------
# Cross-process stitching: every transport, both backends
# ---------------------------------------------------------------------------


def _assert_stitched(events, num_servers, num_clients, rounds):
    """Each round is one causal trace spanning every process."""
    traces = assemble_traces(events)
    round_traces = {
        tid: spans
        for tid, spans in traces.items()
        if trace_root(spans) is not None
    }
    assert len(round_traces) == rounds
    for tid, spans in round_traces.items():
        root = trace_root(spans)
        nodes = {s["node"] for s in spans}
        # Coordinator + every server + every client stitched together.
        assert COORDINATOR in nodes
        assert len(nodes) == 1 + num_servers + num_clients
        segments = critical_path(spans)
        assert segments
        # Segments are disjoint, chronological, and sum to the root span.
        total = sum(seg["seconds"] for seg in segments)
        assert total == pytest.approx(root["end"] - root["start"], abs=1e-9)
        for earlier, later in zip(segments, segments[1:]):
            assert earlier["end"] == pytest.approx(later["start"], abs=1e-9)
        breakdown = phase_breakdown(spans)
        for phase in ("submit", "commit", "reveal", "verify", "output"):
            servers_with_phase = {
                node for (node, p) in breakdown if p == phase
            }
            assert len(servers_with_phase) == num_servers
        assert sum(
            entry["count"] for (node, p), entry in breakdown.items() if p == "build"
        ) == num_clients


class TestCrossProcessStitching:
    @pytest.mark.parametrize("mode", ["loopback", "tcp", "subprocess"])
    def test_one_round_one_trace_per_mode(self, mode):
        rounds = 1 if mode == "subprocess" else 2
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=77, mode=mode
        ) as session:
            session.setup()
            session.post(0, b"traced message")
            session.run_rounds(rounds)
            events = session.trace_events()
        _assert_stitched(events, num_servers=2, num_clients=3, rounds=rounds)

    @pytest.mark.parametrize("group_name", ["test-256", "ec25519"])
    def test_stitching_per_group_backend(self, group_name):
        with NetworkedSession.build(
            group_name, num_servers=2, num_clients=3, seed=78, mode="loopback"
        ) as session:
            session.setup()
            session.run_rounds(1)
            events = session.trace_events()
        _assert_stitched(events, num_servers=2, num_clients=3, rounds=1)

    def test_trace_table_names_nodes_and_phases(self):
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=79, mode="loopback"
        ) as session:
            session.setup()
            session.run_rounds(1)
            rendered = trace_table(session.trace_events())
        assert "critical path:" in rendered
        assert "server-" in rendered
        assert "phase breakdown per node" in rendered

    def test_sampling_knob_disables_propagation_not_protocol(self):
        policy = Policy(trace_sampling=False)
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=80, mode="loopback", policy=policy
        ) as session:
            session.setup()
            record = session.run_round()
            events = session.trace_events()
        assert record.completed
        # Coordinator spans exist (telemetry is on) but carry no trace id
        # and no node spans were collected — nothing propagated.
        assert all("trace_id" not in e["attrs"] for e in events)
        assert {e["attrs"].get("node") for e in events} <= {COORDINATOR, None}


# ---------------------------------------------------------------------------
# Determinism: fake clock → byte-identical Chrome trace JSON
# ---------------------------------------------------------------------------


class TestDeterministicExport:
    @staticmethod
    def _traced_run():
        ticks = iter(range(1, 100000))

        def clock():
            return next(ticks) * 0.001

        session = DissentSession.build(num_servers=2, num_clients=3, seed=5)
        session.enable_telemetry(clock=clock)
        session.setup()
        session.post(0, b"deterministic bytes")
        session.run_rounds(2)
        return [event.as_dict() for event in session.tracer.events]

    def test_chrome_trace_json_is_byte_identical(self):
        first = chrome_trace_json(self._traced_run())
        second = chrome_trace_json(self._traced_run())
        assert first == second
        document = json.loads(first)
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        assert any(e["name"] == "process_name" for e in document["traceEvents"])

    def test_local_round_spans_get_synthetic_traces(self):
        events = self._traced_run()
        traces = assemble_traces(events)
        # In-process sessions stitch by local parent links under the
        # shared trace-id scheme (group id + round), one per round.
        assert len([t for t in traces if trace_root(traces[t])]) == 2


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3, node="n")
        for i in range(10):
            recorder.note("tick", i=i)
        entries = recorder.snapshot()
        assert len(entries) == 3
        assert [e["data"]["i"] for e in entries] == [7, 8, 9]

    def test_capacity_zero_disables(self):
        recorder = FlightRecorder(capacity=0)
        recorder.note("tick")
        assert not recorder.enabled
        assert recorder.snapshot() == []
        assert len(recorder) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-1)

    def test_ndjson_round_trip(self):
        recorder = FlightRecorder(capacity=8, node="server-0")
        recorder.note("view_change", view=2)
        recorder.record_span(
            {"span_id": 1, "parent_id": None, "name": "round",
             "attrs": {"round": 0}, "start": 0.0, "end": 0.5}
        )
        header, events = parse_flight_dump(recorder.ndjson("manual"))
        assert header["flight"] == "server-0"
        assert header["reason"] == "manual"
        assert header["events"] == 2
        assert events[0]["event"] == "view_change"
        assert events[1]["event"] == "span"

    def test_dump_skips_empty_ring(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        assert recorder.dump(tmp_path / "nope.ndjson") is None
        recorder.note("x")
        path = recorder.dump(tmp_path / "yes.ndjson", "manual")
        assert path is not None
        header, events = parse_flight_dump((tmp_path / "yes.ndjson").read_text())
        assert len(events) == 1
        assert recorder.dumps == 1

    def test_flight_table_renders(self):
        recorder = FlightRecorder(capacity=4, node="c")
        recorder.note("link_loss", node="client-1")
        rendered = flight_table([parse_flight_dump(recorder.ndjson("link_loss"))])
        assert "link_loss" in rendered
        assert "client-1" in rendered

    def test_failed_round_dumps_flight_and_audits(self, tmp_path):
        flight_dir = tmp_path / "flight"
        flight_dir.mkdir()
        audit_path = tmp_path / "audit.ndjson"
        with NetworkedSession.build(
            num_servers=2,
            num_clients=3,
            seed=81,
            mode="loopback",
            flight_dir=str(flight_dir),
            audit_path=str(audit_path),
        ) as session:
            session.setup()
            assert session.run_round().completed
            # One submitter online is below the §3.7 floor → round fails.
            record = session.run_round(online={0})
            assert not record.completed
            dumps = session.flight_dumps()
        files = sorted(p.name for p in flight_dir.iterdir())
        assert any("round_failure" in name for name in files)
        # The coordinator ring holds the certified round's span lead-up.
        header, events = parse_flight_dump(
            (flight_dir / [f for f in files if "round_failure" in f][0]).read_text()
        )
        assert header["reason"] == "round_failure"
        assert any(e["event"] == "span" for e in events)
        # The dump is chained into the audit log.
        from repro.persist import read_audit_log

        entries = read_audit_log(audit_path)
        assert any(e["event"] == "flight_dump" for e in entries)
        # Live pulls return coordinator + one ring per node.
        assert len(dumps) == 1 + 2 + 3
        assert parse_flight_dump(dumps[0])[0]["flight"] == COORDINATOR


# ---------------------------------------------------------------------------
# Health snapshots, OpenMetrics, and the status endpoint
# ---------------------------------------------------------------------------


class TestHealthPlane:
    def test_metric_name_sanitizes(self):
        assert metric_name("span.phase.commit") == "dissent_span_phase_commit"

    def test_render_openmetrics_shape(self):
        health = {
            "node": "server-0", "role": "server", "rounds_per_sec": 2.5,
            "inflight": 1, "view": 0, "reconnects": 0, "generation": 0,
            "anonymity_set": 8,
        }
        snapshot = {
            "counters": {"session.rounds_completed": 4},
            "gauges": {"pipeline.window": 2},
            "histograms": {
                "span.round": {
                    "edges": [0.1, 1.0], "counts": [3, 1, 0],
                    "count": 4, "sum": 0.9,
                }
            },
        }
        text = render_openmetrics(health, snapshot)
        assert 'dissent_node_info{node="server-0",role="server"} 1' in text
        assert 'dissent_health_anonymity_set{node="server-0"} 8' in text
        assert 'dissent_session_rounds_completed_total{node="server-0"} 4' in text
        # Histogram buckets are cumulative and end with +Inf == count.
        assert 'le="0.1"' in text
        assert 'le="+Inf",node="server-0"} 4' in text
        assert 'dissent_span_round_sum{node="server-0"} 0.9' in text
        assert text.endswith("# EOF\n")

    def test_merge_health_is_paper_conservative(self):
        merged = merge_health(
            [
                {"role": "server", "rounds_per_sec": 3.0, "anonymity_set": 8,
                 "view": 0, "reconnects": 1, "inflight": 1},
                {"role": "server", "rounds_per_sec": 2.0, "anonymity_set": 6,
                 "view": 1, "reconnects": 0, "inflight": 2},
                {"role": "client", "rounds_per_sec": 2.5},
            ]
        )
        assert merged["servers"] == 2
        assert merged["clients"] == 1
        # Throughput and anonymity are as slow/small as the worst node.
        assert merged["rounds_per_sec"] == 2.0
        assert merged["anonymity_set"] == 6
        assert merged["view"] == 1
        assert merged["reconnects"] == 1
        assert merged["inflight"] == 3

    def test_health_table_lists_nodes_and_summary(self):
        rendered = health_table(
            [
                {"node": "server-0", "role": "server", "rounds_per_sec": 1.0,
                 "anonymity_set": 5},
                {"node": "client-0", "role": "client", "rounds_per_sec": 1.0},
            ]
        )
        assert "server-0" in rendered
        assert "deployment:" in rendered
        assert "anonymity-set=5" in rendered

    def test_session_health_view(self):
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=82, mode="loopback"
        ) as session:
            session.setup()
            session.run_rounds(2)
            health = session.health()
        by_node = {h["node"]: h for h in health}
        assert len(by_node) == 5
        servers = [h for h in health if h["role"] == "server"]
        assert len(servers) == 2
        for server in servers:
            assert server["rounds_done"] == 2
            assert server["anonymity_set"] == 3
            assert server["inflight"] == 0
        merged = merge_health(health)
        assert merged["anonymity_set"] == 3

    def test_status_endpoint_serves_openmetrics(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        base_port = probe.getsockname()[1]
        probe.close()
        policy = Policy(health_port=base_port)
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=83, mode="loopback", policy=policy
        ) as session:
            session.setup()
            session.run_rounds(1)
            url = f"http://127.0.0.1:{health_port_for(base_port, 0)}"
            metrics_text = urllib.request.urlopen(f"{url}/metrics", timeout=5).read()
            healthz = json.loads(
                urllib.request.urlopen(f"{url}/healthz", timeout=5).read()
            )
        text = metrics_text.decode("utf-8")
        assert 'dissent_node_info{node="server-0",role="server"} 1' in text
        assert "dissent_health_rounds_done" in text
        assert text.endswith("# EOF\n")
        assert healthz["node"] == "server-0"
        assert healthz["rounds_done"] == 1


# ---------------------------------------------------------------------------
# Report CLI flags
# ---------------------------------------------------------------------------


class TestReportFlags:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("obsreport")
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=84, mode="loopback"
        ) as session:
            session.setup()
            session.run_rounds(1)
            events = session.trace_events()
            health = session.health()
            dumps = session.flight_dumps()
        trace_path = base / "trace.json"
        trace_path.write_text(json.dumps({"events": events}))
        health_path = base / "health.json"
        health_path.write_text(json.dumps(health))
        flight_path = base / "flight.ndjson"
        flight_path.write_text(dumps[0])
        return trace_path, health_path, flight_path

    def test_trace_flag(self, artifacts, capsys):
        from repro.obs.report import main

        trace_path, _, _ = artifacts
        assert main(["--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "phase breakdown per node" in out

    def test_health_flag(self, artifacts, capsys):
        from repro.obs.report import main

        _, health_path, _ = artifacts
        assert main(["--health", str(health_path)]) == 0
        out = capsys.readouterr().out
        assert "deployment:" in out

    def test_flight_flag(self, artifacts, capsys):
        from repro.obs.report import main

        _, _, flight_path = artifacts
        assert main(["--flight", str(flight_path)]) == 0
        out = capsys.readouterr().out
        assert "flight" in out

    def test_usage_errors(self):
        from repro.obs.report import main

        assert main([]) == 2
        assert main(["--trace"]) == 2
        assert main(["a.json", "b.json"]) == 2
