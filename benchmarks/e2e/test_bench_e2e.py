"""The benchmark's own checks: its arithmetic, its patching, its contract.

Collected by the tier-1 run (pytest puts this directory on ``sys.path``,
which is how ``e2ebench`` imports).  The smoke tests drive all four
workloads on the toy group; they check the drivers and the correctness
checks, not the numbers.
"""

import json
import re
from pathlib import Path

import pytest

from e2ebench import cli, stats, workloads
from e2ebench import trace as tracing
from e2ebench.trace import Span

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- the tail-percentile rule -------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (39, None), (40, 75), (99, 75), (100, 90), (110, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_SAMPLES_BEYOND


def test_summary_reports_median_always_and_tail_only_when_supported():
    few = stats.summarize([float(i) for i in range(1, 21)])
    assert few["n"] == 20 and few["median"] == 10.5 and "tail" not in few
    many = stats.summarize([float(i) for i in range(1, 111)])
    assert many["tail"] == {"p": 90, "value": 99.0}


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


# -- self-time accounting -----------------------------------------------------


def _synthetic_round():
    root = Span(tracing.ROUND, "0", None, 0.0, 10.0)
    a = Span("x", "a", root, 1.0, 6.0)
    b = Span("y", "b", a, 2.0, 4.0)
    nested = Span("y", "nested", b, 2.5, 3.5)
    c = Span("x", "c", root, 7.0, 9.0, amount=7)
    event = Span("send", "send", root, 8.0, 8.0, amount=100)
    late = Span("x", "late", root, 9.5, 11.0)  # outlives the round: clamped
    orphan = Span("x", "orphan", None, 20.0, 21.0)  # no round in flight
    return [b, nested, a, c, event, late, root, orphan]


def test_self_time_is_duration_minus_covered_children():
    spans = _synthetic_round()
    own = {span.call: seconds for span, seconds in tracing.self_times(spans).items()}
    assert own["a"] == pytest.approx(3.0)
    assert own["b"] == pytest.approx(1.0)
    assert own["nested"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(2.0)
    assert own["0"] == pytest.approx(10.0 - 5.0 - 2.0 - 0.5)


def test_round_budget_sums_to_the_round_span():
    budget = tracing.round_budget(_synthetic_round())
    layers = budget["layers"]
    assert budget["rounds"] == 1
    assert layers["x"]["n"] == 3 and layers["x"]["amount"] == 7
    assert layers["send"]["n"] == 1 and layers["send"]["amount"] == 100
    # Inclusive time counts outermost spans of a layer only.
    assert layers["y"]["incl_ms"] == pytest.approx(2000.0)
    assert layers["y"]["self_ms"] == pytest.approx(2000.0)
    attributed = sum(layer["self_ms"] for layer in layers.values())
    # The span that outlives its round keeps its unclamped second half.
    assert attributed + budget["unattributed_ms"] == pytest.approx(
        budget["round_span_ms"] + 1000.0
    )
    assert budget["unattributed_ms"] == pytest.approx(2500.0)


# -- patching -----------------------------------------------------------------


def test_install_rebinds_consumers_and_uninstall_restores_every_attribute():
    sites = tracing.Tracer.sites()
    owners = {(getattr(owner, "__name__", None), attr) for owner, attr, *_ in sites}
    # ``from x import f`` consumers, aliases and methods are all covered.
    assert ("repro.core.server", "xor_many") in owners
    assert ("repro.core.keyshuffle", "schnorr_sign") in owners
    assert ("repro.net.node", "decode_envelope") in owners
    assert ("DissentServer", "finish_round") in owners
    assert ("RistrettoGroup", "multiexp") in owners

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original, *_ in sites:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original, *_ in sites:
        assert vars(owner)[attr] is original


def test_wrapped_calls_nest_and_attach_to_the_open_root():
    from repro.crypto import schnorr
    from repro.crypto.groups import testing_group
    from repro.crypto.keys import PrivateKey

    key = PrivateKey.generate(testing_group())
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.measure(tracing.ROUND, 3) as root:
        signature = schnorr.sign(key, b"m")
        assert schnorr.batch_verify([(key.public, b"m", signature)])
    by_call = {span.call: span for span in tracer.spans}
    # A one-item batch takes the scalar path: verify nests in batch_verify.
    assert by_call["schnorr.verify"].parent is by_call["schnorr.batch_verify"]
    assert by_call["schnorr.batch_verify"].parent is root
    assert by_call["schnorr.batch_verify"].amount == 1
    assert by_call["schnorr.sign"].root is root


# -- BENCHMARK.json agrees with the code --------------------------------------


def test_benchmark_json_matches_the_registry():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(workloads.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        workloads.PER_LAYER_METRICS
    )
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


# -- smoke: every driver, both passes, on the toy group -----------------------


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e-out")
    return {
        (workload.name, trace): workloads.run_workload(
            workloads.quick(workload), seed=7, seconds=0.2, trace=trace, out_dir=out_dir
        )
        for workload in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_quick_runs_are_correct_and_report_every_metric(quick_reports):
    for (name, trace), report in quick_reports.items():
        assert report["correct"], (name, report["failures"])
        assert report["failed"] == 0 and report["attempted"] > 10
        expected = workloads.PER_LAYER_METRICS if trace else workloads.E2E_METRICS
        assert list(report["metrics"]) == [metric[0] for metric in expected]
        # No timing may read 0: every workload uses every timed layer.
        assert all(
            m["value"] > 0
            for m in report["metrics"].values()
            if not trace or m["unit"] in ("s", "ms")
        ), name


def test_microblog_outputs_are_bit_identical_across_transports(quick_reports):
    tcp = quick_reports[("microblog-tcp-32", False)]["detail"]
    inproc = quick_reports[("microblog-inproc-32", False)]["detail"]
    common = min(tcp["compared_rounds"], inproc["compared_rounds"])
    assert common > 3
    assert tcp["output_chain"][common - 1] == inproc["output_chain"][common - 1]


def test_layer_budget_sums_to_the_round_span(quick_reports):
    for (name, trace), report in quick_reports.items():
        if not trace:
            continue
        value = {k: m["value"] for k, m in report["metrics"].items()}
        attributed = sum(value[f"{layer}_ms"] for layer in workloads.SELF_TIME_LAYERS)
        assert attributed + value["driver.unattributed_ms"] == pytest.approx(
            value["driver.round_span_ms"], rel=0.02
        ), name
        assert value["trace.overhead_ratio"] > 0
    blame = quick_reports[("blame-recover-inproc-12", True)]
    assert blame["metrics"]["core.accusation.rounds_to_verdict"]["value"] >= 1
    assert blame["metrics"]["persist.checkpoint.bytes"]["value"] > 0
    assert blame["detail"]["time_to_blame_s"] > 0
    assert all(seconds > 0 for seconds in blame["detail"]["layer_total_s"].values())
    tcp = quick_reports[("microblog-tcp-32", True)]["metrics"]
    assert tcp["net.transport.frames"]["value"] > 0
    assert tcp["obs.telemetry_overhead_ratio"]["value"] > 0


def test_a_failed_check_is_counted_and_reported():
    checks = workloads.Checks()
    checks.expect(True, "fine")
    checks.expect(False, "round 3 not completed")
    assert (checks.attempted, checks.failures) == (2, ["round 3 not completed"])


# -- compare ------------------------------------------------------------------


def _suite(latency, spread=0.01, failed=0):
    metrics = {
        name: {"unit": unit, "median": 100.0, "spread": spread}
        for name, unit, _, _ in workloads.E2E_METRICS
    }
    metrics["round_latency_p50_ms"]["median"] = latency
    entry = {"metrics": metrics, "ops_attempted": 50, "ops_failed": failed,
             "failed_ops_ratio": failed / 50}  # fmt: skip
    return {"workloads": {"bulk-tcp-16": entry}}


def test_compare_flags_regressions_and_unresolved_spreads(tmp_path, capsys):
    def run(a, b):
        paths = []
        for label, suite in (("a", a), ("b", b)):
            paths.append(tmp_path / f"{label}.json")
            paths[-1].write_text(json.dumps(suite))
        code = cli.compare(*map(str, paths))
        return code, capsys.readouterr().out

    bound = dict((name, b) for name, _, _, b in workloads.E2E_METRICS)[
        "round_latency_p50_ms"
    ]
    code, out = run(_suite(100.0), _suite(100.0 * (1 + bound / 2)))
    assert code == 0 and "regressed" not in out and "unresolved" not in out
    code, out = run(_suite(100.0), _suite(100.0 * (1 + bound * 1.2)))
    assert code == 1 and "regressed" in out
    code, out = run(_suite(100.0, spread=bound * 1.2), _suite(101.0))
    assert code == 0 and "unresolved" in out
    code, out = run(_suite(100.0), _suite(100.0, failed=1))
    assert code == 1
