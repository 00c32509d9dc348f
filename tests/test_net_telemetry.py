"""Networked telemetry: TELEMETRY wire codec, merged views, parity.

The merged :meth:`NetworkedSession.metrics` view must work in every
transport mode, and telemetry must never perturb protocol bytes — the
same seed yields bit-identical records and deliveries with tracing on,
off, and in-process.
"""

import pytest

from repro.errors import WireDecodeError
from repro.net.runner import NetworkedSession
from repro.net.wire import decode_telemetry_body, encode_telemetry_body
from repro.obs import MetricsRegistry

from tests.test_networked_session import build_matched_inprocess, drive_honest


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


class TestTelemetryCodec:
    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("net.sent.frames.total").inc(12)
        registry.gauge("net.early.depth").set_max(3)
        registry.histogram("span.phase.commit", (0.001, 0.01)).observe(0.004)
        snapshot = registry.snapshot()
        assert decode_telemetry_body(encode_telemetry_body(snapshot)) == snapshot

    def test_merged_after_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        body = encode_telemetry_body(registry.snapshot())
        merged = MetricsRegistry()
        merged.merge_snapshot(decode_telemetry_body(body))
        merged.merge_snapshot(decode_telemetry_body(body))
        assert merged.snapshot()["counters"]["c"] == 10

    def test_decode_rejects_garbage(self):
        with pytest.raises(WireDecodeError):
            decode_telemetry_body(b"\xff\xfe not json")
        with pytest.raises(WireDecodeError):
            decode_telemetry_body(b"[1, 2, 3]")
        with pytest.raises(WireDecodeError):
            decode_telemetry_body(b'"just a string"')

    def test_encode_rejects_unserializable(self):
        with pytest.raises(WireDecodeError):
            encode_telemetry_body({"bad": object()})


# ---------------------------------------------------------------------------
# Merged cross-process view, per mode
# ---------------------------------------------------------------------------


def _assert_merged_view(snapshot, num_servers, num_clients, rounds):
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    # Per-phase latency histograms from every server's round engine.
    for phase in ("submit", "inventory", "commit", "reveal", "verify", "output"):
        assert histograms[f"span.phase.{phase}"]["count"] == num_servers * rounds
    # Client build timings merge in too.
    assert histograms["span.phase.build"]["count"] == num_clients * rounds
    # Per-envelope-type byte accounting crossed the wire and summed.
    for kind in ("client-ciphertext", "server-commit", "server-reveal"):
        assert counters[f"net.sent.bytes.{kind}"] > 0
        assert counters[f"net.sent.frames.{kind}"] > 0
        assert histograms[f"net.arrival.{kind}"]["count"] > 0
    assert counters["net.sent.bytes.total"] > counters["net.sent.bytes.client-ciphertext"]
    # Coordinator-side session counters are part of the same view.
    assert counters["session.rounds_completed"] == rounds
    assert counters["net.coord.sent.frames"] > 0


class TestMergedMetrics:
    def test_loopback_merged_view(self):
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=99, mode="loopback"
        ) as session:
            session.setup()
            session.post(0, b"count me")
            session.run_rounds(2)
            snapshot = session.metrics()
        _assert_merged_view(snapshot, num_servers=2, num_clients=3, rounds=2)

    def test_tcp_merged_view(self):
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=99, mode="tcp"
        ) as session:
            session.setup()
            session.post(0, b"count me")
            session.run_rounds(2)
            snapshot = session.metrics()
        _assert_merged_view(snapshot, num_servers=2, num_clients=3, rounds=2)

    def test_subprocess_merged_view_includes_crypto(self):
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=99, mode="subprocess"
        ) as session:
            session.setup()
            session.post(0, b"count me")
            session.run_rounds(1)
            snapshot = session.metrics()
        _assert_merged_view(snapshot, num_servers=2, num_clients=3, rounds=1)
        # Child processes install their registry as process-global, so
        # crypto hot-path counters ship back inside the same snapshot.
        assert snapshot["counters"]["crypto.fixed_base.exps"] > 0
        assert snapshot["counters"]["crypto.multiexp.calls"] > 0

    def test_metrics_disabled_returns_empty_without_wire_traffic(self):
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=99, telemetry=False
        ) as session:
            session.setup()
            session.run_rounds(1)
            snapshot = session.metrics()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert session.tracer.events == ()


# ---------------------------------------------------------------------------
# Parity: tracing must never change protocol bytes
# ---------------------------------------------------------------------------


class TestTracingParity:
    @pytest.mark.parametrize("mode", ["loopback", "tcp"])
    def test_bit_identical_tracing_on_vs_off(self, mode):
        expected = drive_honest(build_matched_inprocess(None, seed=2012))
        results = {}
        for telemetry in (False, True):
            with NetworkedSession.build(
                seed=2012, mode=mode, telemetry=telemetry
            ) as session:
                results[telemetry] = drive_honest(session)
        assert results[True] == results[False] == expected
