"""Telemetry unit tests: metrics, tracer, exporters, report CLI.

Covers histogram bucket-edge semantics and cross-process merge,
deterministic span logs under a fake clock, and bit-identical session
outputs with tracing on vs off.
"""

import json

import pytest

from repro.core.session import DissentSession
from repro.obs import (
    LATENCY_EDGES_S,
    NULL_REGISTRY,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    Tracer,
    events_ndjson,
    global_registry,
    phase_table,
    render_table,
    set_global_registry,
    snapshot_json,
)
from repro.obs import report as report_cli


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 0.125) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("t", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0, 100.0):
            h.observe(value)
        # bucket i counts values <= edges[i]; the last bucket is overflow.
        assert h.counts == [2, 2, 2, 2]
        assert h.count == 8
        assert h.min == 0.5
        assert h.max == 100.0
        assert h.sum == pytest.approx(121.0)

    def test_quantile_reports_bucket_upper_edge(self):
        h = Histogram("t", (1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            h.observe(value)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.0) == 1.0
        # Overflow bucket has no upper edge: fall back to the exact max.
        h.observe(50.0)
        assert h.quantile(1.0) == 50.0

    def test_edges_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("t", ())
        with pytest.raises(ValueError):
            Histogram("t", (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", (2.0, 1.0))

    def test_merge_adds_buckets_and_keeps_extremes(self):
        a = Histogram("t", (1.0, 2.0))
        b = Histogram("t", (1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b.state())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5
        assert a.max == 9.0

    def test_merge_rejects_mismatched_edges(self):
        a = Histogram("t", (1.0, 2.0))
        with pytest.raises(ValueError):
            a.merge(Histogram("t", (1.0, 3.0)).state())
        with pytest.raises(ValueError):
            a.merge(Histogram("t", (1.0, 2.0, 3.0)).state())


# ---------------------------------------------------------------------------
# Registry: snapshot, merge, null object
# ---------------------------------------------------------------------------


class TestRegistry:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c.one").inc(3)
        registry.gauge("g.depth").set_max(7)
        registry.histogram("h.lat", (0.5, 1.0)).observe(0.75)
        return registry

    def test_snapshot_round_trip(self):
        registry = self._populated()
        clone = MetricsRegistry.from_snapshot(registry.snapshot())
        assert clone.snapshot() == registry.snapshot()

    def test_cross_process_merge_semantics(self):
        merged = MetricsRegistry()
        merged.merge_snapshot(self._populated().snapshot())
        merged.merge_snapshot(self._populated().snapshot())
        snap = merged.snapshot()
        assert snap["counters"]["c.one"] == 6  # counters add
        assert snap["gauges"]["g.depth"] == 7  # gauges keep the max
        assert snap["histograms"]["h.lat"]["count"] == 2  # buckets add

    def test_merge_empty_snapshot_is_noop(self):
        registry = self._populated()
        before = registry.snapshot()
        registry.merge_snapshot({})
        assert registry.snapshot() == before

    def test_null_registry_is_inert(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x").inc(5)
        NULL_REGISTRY.gauge("y").set_max(5)
        NULL_REGISTRY.histogram("z", (1.0,)).observe(0.5)
        assert NULL_REGISTRY.snapshot() == {}

    def test_global_registry_install_and_restore(self):
        mine = MetricsRegistry()
        old = set_global_registry(mine)
        try:
            assert global_registry() is mine
        finally:
            set_global_registry(old)
        assert global_registry() is old


# ---------------------------------------------------------------------------
# Tracer: span nesting, ordering, fake-clock determinism
# ---------------------------------------------------------------------------


class TestTracer:
    def _run_workload(self, tracer: Tracer) -> None:
        with tracer.span("round", round=0) as round_span:
            with round_span.child("phase", name="build"):
                pass
            with round_span.child("phase", name="commit"):
                pass
        with tracer.span("round", round=1):
            pass

    def test_span_ids_and_lineage(self):
        tracer = Tracer(clock=FakeClock())
        self._run_workload(tracer)
        # Children finish before their parent, ids are creation-ordered.
        names = [(e.name, e.attrs.get("name")) for e in tracer.events]
        assert names == [
            ("phase", "build"),
            ("phase", "commit"),
            ("round", None),
            ("round", None),
        ]
        build, commit, round0, round1 = tracer.events
        assert round0.span_id == 1 and round0.parent_id is None
        assert build.parent_id == round0.span_id
        assert commit.parent_id == round0.span_id
        assert round1.span_id == 4

    def test_identical_fake_clocks_give_identical_ndjson(self):
        logs = []
        for _ in range(2):
            tracer = Tracer(clock=FakeClock())
            self._run_workload(tracer)
            logs.append(events_ndjson(tracer.events))
        assert logs[0] == logs[1]
        # And the log is real NDJSON: one object per line.
        lines = logs[0].strip().split("\n")
        assert len(lines) == 4
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_durations_feed_phase_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, clock=FakeClock())
        self._run_workload(tracer)
        snap = registry.snapshot()
        assert snap["histograms"]["span.phase.build"]["count"] == 1
        assert snap["histograms"]["span.phase.commit"]["count"] == 1
        assert snap["histograms"]["span.round"]["count"] == 2

    def test_double_finish_records_once(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round", round=0) as span:
            span.finish()
        assert len(tracer.events) == 1

    def test_event_cap_drops_and_counts(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, clock=FakeClock(), max_events=2)
        for r in range(5):
            with tracer.span("round", round=r):
                pass
        assert len(tracer.events) == 2
        assert registry.counter("trace.events_dropped").value == 3
        # The log keeps the newest records.
        assert [r.attrs["round"] for r in tracer.events] == [3, 4]
        # Dropped spans still feed the histogram.
        assert registry.snapshot()["histograms"]["span.round"]["count"] == 5

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("round", round=9)
        assert span.child("phase", name="build") is span
        with span:
            pass
        assert NULL_TRACER.events == ()


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def test_phase_table_orders_paper_phases(self):
        registry = MetricsRegistry()
        for phase in ("verify", "build", "commit", "zzz-custom"):
            registry.histogram(
                f"span.phase.{phase}", LATENCY_EDGES_S
            ).observe(0.01)
        table = phase_table(registry.snapshot())
        rows = [line.split()[0] for line in table.splitlines()[2:]]
        assert rows == ["build", "commit", "verify", "zzz-custom"]

    def test_phase_table_empty(self):
        assert phase_table({}) == "(no phase timings recorded)"

    def test_snapshot_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        text = snapshot_json(registry.snapshot())
        assert text.endswith("\n")
        assert text == snapshot_json(MetricsRegistry.from_snapshot(
            registry.snapshot()).snapshot())

    def test_render_table_lists_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set_max(4)
        registry.histogram("h", (1.0,)).observe(0.5)
        text = render_table(registry.snapshot())
        assert "counters" in text and "gauges" in text and "histograms" in text
        assert render_table({}) == "(empty snapshot)"


# ---------------------------------------------------------------------------
# Report CLI
# ---------------------------------------------------------------------------


class TestReportCli:
    def _snapshot_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("span.phase.commit", LATENCY_EDGES_S).observe(0.004)
        path = tmp_path / "snap.json"
        path.write_text(snapshot_json(registry.snapshot()))
        return path

    def test_renders_phase_breakdown(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path)
        assert report_cli.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out and "commit" in out

    def test_full_listing(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path)
        assert report_cli.main([str(path), "--full"]) == 0
        assert "histograms" in capsys.readouterr().out

    def test_error_exits(self, tmp_path, capsys):
        assert report_cli.main([]) == 2
        assert report_cli.main([str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert report_cli.main([str(bad)]) == 1
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Parity: telemetry must never perturb protocol bytes
# ---------------------------------------------------------------------------


class TestSessionParity:
    def _outputs(self, telemetry: bool):
        session = DissentSession.build(
            num_servers=2, num_clients=4, seed=1234, telemetry=telemetry
        )
        session.setup()
        session.post(1, b"parity check message")
        session.post(3, b"second slot traffic")
        records = session.run_rounds(3)
        return [
            (r.status, r.participation, r.output.cleartext if r.output else None)
            for r in records
        ], session

    def test_outputs_bit_identical_tracing_on_vs_off(self):
        off, _ = self._outputs(telemetry=False)
        on, session = self._outputs(telemetry=True)
        assert on == off
        # And the traced run actually recorded phase spans.
        snap = session.metrics()
        assert snap["histograms"]["span.phase.commit"]["count"] == 3
        assert snap["counters"]["session.rounds_completed"] == 3
        assert any(e.name == "round" for e in session.tracer.events)
