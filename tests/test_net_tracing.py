"""Distributed tracing and the health plane, end to end.

Covers the wire-level trace context, cross-process stitching and
critical paths over every transport and both group backends, fake-clock
determinism of the Chrome trace export, flight dumps (the tail of a
process's span log: unit, failure-triggered, and none on a clean close
or with telemetry off), one span record per phase boundary on every
node and the records a round costs, OpenMetrics rendering plus the live
status endpoint, the telemetry dedup fix and total telemetry readers,
the health-port knob, and the report CLI's --trace/--health/--flight
flags.
"""

import collections
import json
import socket
import urllib.request

import pytest

from repro.core.config import GroupDefinition, Policy
from repro.core.session import DissentSession
from repro.errors import ConfigError, DissentError, ProtocolError
from repro.net.runner import COORDINATOR, NetworkedSession, dedupe_telemetry_replies
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.obs.critical import (
    assemble_traces,
    chrome_trace_json,
    critical_path,
    phase_breakdown,
    trace_table,
    trace_root,
)
from repro.obs.export import (
    FLIGHT_EVENTS,
    flight_ndjson,
    flight_table,
    parse_flight_dump,
    write_flight_dump,
)
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
# The health-port knob (the one observability field members agree on)
# ---------------------------------------------------------------------------


class TestHealthPortKnob:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Policy(health_port=-1)
        with pytest.raises(ConfigError):
            Policy(health_port=70000)

    def test_survives_canonical_definition_bytes(self):
        """The knob rides GroupDefinition serialization — what durable
        checkpoints persist — so a restored session keeps it."""
        session = DissentSession.build(
            num_servers=2, num_clients=2, seed=7, policy=Policy(health_port=9100)
        )
        blob = session.definition.canonical_bytes()
        restored = GroupDefinition.from_canonical_bytes(blob)
        assert restored.policy.health_port == 9100


# ---------------------------------------------------------------------------
# Telemetry dedup across reconnects (satellite fix)
# ---------------------------------------------------------------------------


#: Registry snapshots no registry writes; every reader raises a typed error.
MALFORMED_SNAPSHOTS = [
    pytest.param([1], id="not-an-object"),
    pytest.param({"counters": [1]}, id="counters-a-list"),
    pytest.param({"counters": {"c": "7"}}, id="counter-a-string"),
    pytest.param({"gauges": {"g": None}}, id="gauge-null"),
    pytest.param({"histograms": {"a": {"edges": [1]}}}, id="histogram-no-counts"),
    pytest.param({"histograms": {"a": [1]}}, id="histogram-a-list"),
    pytest.param(
        {"histograms": {"a": {"edges": [1], "counts": [1], "sum": 0, "count": 1}}},
        id="histogram-short-counts",
    ),
    pytest.param(
        {"histograms": {"a": {"edges": ["x"], "counts": [0, 0], "sum": 0, "count": 0}}},
        id="histogram-edge-a-string",
    ),
]


@pytest.fixture(scope="module")
def telemetry_session():
    with NetworkedSession.build(
        num_servers=2, num_clients=3, seed=87, mode="loopback"
    ) as session:
        session.setup()
        yield session


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

    @pytest.mark.parametrize("generation", ["x", None, 1.5, True])
    def test_non_integer_generation_rejected(self, generation):
        reply = {"node": "server-0", "generation": generation, "snapshot": {}}
        with pytest.raises(ProtocolError, match="telemetry reply"):
            dedupe_telemetry_replies([reply])

    @pytest.mark.parametrize("snapshot", MALFORMED_SNAPSHOTS)
    def test_malformed_snapshot_merges_nothing(self, snapshot):
        registry = MetricsRegistry()
        registry.counter("kept").inc()
        with pytest.raises(ValueError):
            registry.merge_snapshot(snapshot)
        assert registry.snapshot()["counters"] == {"kept": 1}
        assert not registry.snapshot()["histograms"]

    @pytest.mark.parametrize("snapshot", MALFORMED_SNAPSHOTS)
    def test_session_metrics_raise_a_typed_error(
        self, telemetry_session, monkeypatch, snapshot
    ):
        node = telemetry_session._node_objects["server-1"]
        monkeypatch.setattr(node.registry, "snapshot", lambda: snapshot)
        with pytest.raises(DissentError, match="telemetry"):
            telemetry_session.metrics()

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
    """A flight dump is the tail of the tracer's log; a trigger is a note."""

    def test_ring_is_bounded(self):
        tracer = Tracer(max_events=3)
        for i in range(10):
            tracer.note("tick", i=i)
        header, events = parse_flight_dump(flight_ndjson("n", "manual", tracer.events))
        assert header["events"] == 3
        assert [e["attrs"]["i"] for e in events] == [7, 8, 9]

    def test_every_ring_holds_the_same_number_of_events(self):
        tracer = Tracer()
        for i in range(FLIGHT_EVENTS + 10):
            tracer.note("tick", i=i)
        header, events = parse_flight_dump(flight_ndjson("n", "manual", tracer.events))
        assert header["capacity"] == header["events"] == len(events)
        assert len(events) == FLIGHT_EVENTS == 256
        assert events[0]["attrs"]["i"] == 10

    def test_note_is_a_zero_length_record(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        record = tracer.note("view_change", round=4, view=1)
        assert record.duration == 0.0 and record.attrs == {"round": 4, "view": 1}
        assert list(tracer.events) == [record]
        assert registry.snapshot()["histograms"]["span.view_change"]["count"] == 1
        assert NULL_TRACER.note("view_change", view=1) is None
        assert NULL_TRACER.events == ()

    def test_trigger_notes_and_dumps_into_a_directory(self, tmp_path):
        tracer = Tracer()
        tracer.note("view_change", view=1)
        assert write_flight_dump(None, "server-1", 0, "view_change", tracer.events) is None
        tracer.note("abandon", round=3)
        dumped = tmp_path / "flight-server-1-0-abandon.ndjson"
        assert write_flight_dump(
            str(tmp_path), "server-1", 0, "abandon", tracer.events
        ) == str(dumped)
        header, events = parse_flight_dump(dumped.read_text())
        assert header["reason"] == "abandon"
        assert [e["name"] for e in events] == ["view_change", "abandon"]
        # A directory that cannot be written is not the caller's problem.
        assert write_flight_dump(
            str(tmp_path / "missing"), "server-1", 1, "abandon", tracer.events
        ) is None

    def test_ndjson_round_trip(self):
        ticks = iter(range(1, 100))
        tracer = Tracer(clock=lambda: next(ticks) * 0.25)
        tracer.note("view_change", view=2)
        with tracer.span("round", round=0):
            pass
        header, events = parse_flight_dump(flight_ndjson("server-0", "manual", tracer.events))
        assert header == {
            "flight": "server-0", "reason": "manual", "events": 2, "capacity": 256,
        }
        assert events == [r.as_dict() for r in tracer.events]
        assert [e["name"] for e in events] == ["view_change", "round"]
        assert events[1]["end"] - events[1]["start"] == 0.25

    def test_dump_skips_empty_ring(self, tmp_path):
        assert write_flight_dump(str(tmp_path), "n", 0, "abandon", ()) is None
        assert not list(tmp_path.iterdir())
        header, events = parse_flight_dump(flight_ndjson("n", "manual", ()))
        assert header["events"] == 0 and events == []

    def test_flight_table_renders(self):
        tracer = Tracer()
        tracer.note("link_loss", node="c", peer="client-1")
        rendered = flight_table(
            [parse_flight_dump(flight_ndjson("c", "link_loss", tracer.events))]
        )
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
        # The dump holds the certified round's span lead-up.
        header, events = parse_flight_dump(
            (flight_dir / [f for f in files if "round_failure" in f][0]).read_text()
        )
        assert header["reason"] == "round_failure"
        assert any(e["attrs"].get("round") == 0 for e in events)
        # The dump is chained into the audit log.
        from repro.persist import read_audit_log

        entries = read_audit_log(audit_path)
        assert any(e["event"] == "flight_dump" for e in entries)
        # Live pulls return coordinator + one ring per node.
        assert len(dumps) == 1 + 2 + 3
        assert parse_flight_dump(dumps[0])[0]["flight"] == COORDINATOR

    def test_restored_session_dumps_into_its_flight_dir(self, tmp_path):
        checkpoint = tmp_path / "session.ckpt"
        flight_dir = tmp_path / "flight"
        flight_dir.mkdir()
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=86, mode="loopback"
        ) as session:
            session.setup()
            assert session.run_round().completed
            session.checkpoint(checkpoint)
        with NetworkedSession.restore(
            checkpoint, flight_dir=str(flight_dir)
        ) as restored:
            assert not restored.run_round(online={0}).completed
        files = sorted(p.name for p in flight_dir.iterdir())
        assert f"flight-{COORDINATOR}-0-round_failure.ndjson" in files
        assert {f"flight-server-{j}-0-abandon.ndjson" for j in (0, 1)} <= set(files)

    @pytest.mark.parametrize("mode", ["loopback", "tcp"])
    def test_clean_close_dumps_nothing(self, tmp_path, mode):
        flight_dir = tmp_path / "flight"
        flight_dir.mkdir()
        audit_path = tmp_path / "audit.ndjson"
        with NetworkedSession.build(
            num_servers=2,
            num_clients=3,
            seed=81,
            mode=mode,
            flight_dir=str(flight_dir),
            audit_path=str(audit_path),
        ) as session:
            session.setup()
            for _ in range(3):
                assert session.run_round().completed
        from repro.persist import read_audit_log

        assert not list(flight_dir.iterdir())
        # Nothing to chain: a log with no entries is never created.
        entries = read_audit_log(audit_path) if audit_path.exists() else []
        assert not [e for e in entries if e["event"] == "flight_dump"]

    def test_killed_connection_still_dumps(self, tmp_path):
        flight_dir = tmp_path / "flight"
        flight_dir.mkdir()
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=81, mode="loopback",
            flight_dir=str(flight_dir),
        ) as session:
            session.setup()
            assert session.run_round().completed
            session.kill_connection(session.node_name("client", 1))
        coordinator = [
            p.name for p in flight_dir.iterdir() if p.name.startswith(f"flight-{COORDINATOR}-")
        ]
        assert coordinator == [f"flight-{COORDINATOR}-0-link_loss.ndjson"]
        _, events = parse_flight_dump((flight_dir / coordinator[0]).read_text())
        assert events[-1]["name"] == "link_loss"
        assert events[-1]["attrs"]["peer"] == "client-1"

    def test_telemetry_off_means_no_flight_data(self, tmp_path):
        flight_dir = tmp_path / "flight"
        flight_dir.mkdir()
        with NetworkedSession.build(
            num_servers=2,
            num_clients=3,
            seed=81,
            mode="loopback",
            telemetry=False,
            flight_dir=str(flight_dir),
        ) as session:
            session.setup()
            assert session.run_round().completed
            assert not session.run_round(online={0}).completed
            dumps = session.flight_dumps()
        assert not list(flight_dir.iterdir())
        assert len(dumps) == 1 + 2 + 3
        for dump in dumps:
            header, events = parse_flight_dump(dump)
            assert header["events"] == 0 and events == []


# ---------------------------------------------------------------------------
# One record per phase boundary
# ---------------------------------------------------------------------------


class TestOneRecordPerBoundary:
    """A node times each boundary once: its tracer feeds its registry.

    Every ``span.*`` observation in a node's registry is one record in its
    span log, whether or not the coordinator's round-begin carried a trace
    context; the context only adds the trace id.
    """

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "no-context"])
    def test_every_observation_is_one_record(self, traced, monkeypatch):
        if not traced:
            monkeypatch.setattr(
                TraceContext, "from_bytes", staticmethod(lambda data: None)
            )
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=85, mode="loopback"
        ) as session:
            session.setup()
            session.post(0, b"timed once")
            assert session.run_round().completed
            # One submitter is below the participation floor: abandoned.
            assert not session.run_round(online={0}).completed
            nodes = dict(session._node_objects)
        assert len(nodes) == 5
        for name, node in nodes.items():
            histograms = node.registry.snapshot()["histograms"]
            observed = {
                key: histogram["count"]
                for key, histogram in histograms.items()
                if key.startswith("span.")
            }
            records = collections.Counter(r.metric_key() for r in node.tracer.events)
            assert observed == dict(records) and observed, name
            # Notes (the failure triggers) carry no trace context.
            assert all(
                ("trace_id" in r.attrs) is traced
                for r in node.tracer.events
                if r.name in ("round", "phase")
            ), name
        for j in (0, 1):
            server = nodes[f"server-{j}"]
            statuses = [
                r.attrs["status"] for r in server.tracer.events if r.name == "round"
            ]
            assert statuses == ["certified", "abandoned"]
            phases = [r for r in server.tracer.events if r.name == "phase"]
            assert {r.parent_id for r in phases} <= {
                r.span_id for r in server.tracer.events if r.name == "round"
            }
        builds = [r for r in nodes["client-0"].tracer.events if r.name == "phase"]
        assert [r.attrs["name"] for r in builds] == ["build", "build"]

    def test_records_a_certified_round_costs(self):
        """The telemetry cost of one round as a count: records per log."""
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=88, mode="loopback"
        ) as session:
            session.setup()
            nodes = dict(session._node_objects)
            logs = {name: node.tracer.events for name, node in nodes.items()}
            logs[COORDINATOR] = session.tracer.events
            before = {name: len(log) for name, log in logs.items()}
            assert session.run_round().completed
            grown = {name: len(log) - before[name] for name, log in logs.items()}
            server_records = [
                r.attrs.get("name", r.name) for r in list(logs["server-0"])[-8:]
            ]
        assert grown == {
            COORDINATOR: 1,
            "server-0": 8,
            "server-1": 8,
            "client-0": 1,
            "client-1": 1,
            "client-2": 1,
        }
        assert sorted(server_records) == sorted([
            "round", "submit", "inventory", "commit", "reveal", "verify",
            "certify", "output",
        ])


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

    @pytest.mark.parametrize(
        "flag, text",
        [
            pytest.param(
                "--flight",
                '{"flight":"coord","reason":"manual","events":1,"capacity":256}\n[1,2]\n',
                id="flight-line-a-list",
            ),
            pytest.param(
                "--flight",
                '{"flight":"coord"}\n{"name":"round","attrs":{"round":"x"}}\n',
                id="flight-round-a-string",
            ),
            pytest.param("--trace", "[1,2]", id="trace-events-not-objects"),
            pytest.param(
                "--trace", '[{"name":"round","start":"soon"}]', id="trace-start-a-string"
            ),
            pytest.param("--health", "[1]", id="health-not-objects"),
            pytest.param(
                "--health", '[{"node":"s","rounds_per_sec":"fast"}]', id="health-rate-a-string"
            ),
            pytest.param(
                None,
                '{"histograms":{"span.phase.commit":{"edges":[1],"sum":0,"count":0}}}',
                id="snapshot-histogram-no-counts",
            ),
            pytest.param(None, '{"counters":[1]}', id="snapshot-counters-a-list"),
        ],
    )
    def test_malformed_input_exits_one(self, tmp_path, capsys, flag, text):
        from repro.obs.report import main

        path = tmp_path / "input"
        path.write_text(text)
        argv = [str(path)] if flag is None else [flag, str(path)]
        assert main(argv + ["--full"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_errors(self):
        from repro.obs.report import main

        assert main([]) == 2
        assert main(["--trace"]) == 2
        assert main(["a.json", "b.json"]) == 2
