"""Unit tests for the round timing simulator and cost model."""

import random
from dataclasses import replace

import pytest

from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.network import deterlab_topology
from repro.sim.roundsim import (
    RoundSimConfig,
    Workload,
    mean_timing,
    simulate_full_protocol,
    simulate_round,
    simulate_rounds,
)


class TestWorkload:
    def test_microblog_sender_count(self):
        w = Workload.microblog(1000)
        assert len(w.open_slot_payloads) == 10

    def test_microblog_at_least_one_sender(self):
        assert len(Workload.microblog(32).open_slot_payloads) >= 1

    def test_data_sharing_single_slot(self):
        w = Workload.data_sharing()
        assert w.open_slot_payloads == (128 * 1024,)

    def test_round_bytes_matches_layout_rules(self):
        from repro.core.schedule import open_slot_bytes

        w = Workload("x", (128, 256))
        expected = (100 + 7) // 8 + open_slot_bytes(128) + open_slot_bytes(256)
        assert w.round_bytes(100) == expected


class TestCostModel:
    def test_prng_scales_with_bytes(self):
        cm = DEFAULT_COST_MODEL
        assert cm.prng_time(2_000_000) == pytest.approx(2 * cm.prng_time(1_000_000))

    def test_cores_divide_stream_time(self):
        cm = DEFAULT_COST_MODEL
        assert cm.prng_time(1_000_000, cores=4) == pytest.approx(
            cm.prng_time(1_000_000) / 4
        )

    def test_client_compute_linear_in_servers(self):
        cm = DEFAULT_COST_MODEL
        t8 = cm.client_submission_compute(1000, 8)
        t32 = cm.client_submission_compute(1000, 32)
        assert t32 > t8

    def test_key_shuffle_linear_in_clients(self):
        cm = DEFAULT_COST_MODEL
        assert cm.key_shuffle_time(1000, 24) > 9 * cm.key_shuffle_time(100, 24)

    def test_message_shuffle_costlier_than_key(self):
        cm = DEFAULT_COST_MODEL
        assert cm.message_shuffle_time(100, 8) > 5 * cm.key_shuffle_time(100, 8)

    def test_scaled_machine(self):
        slow = DEFAULT_COST_MODEL.scaled(2.0)
        assert slow.prng_time(1000) == pytest.approx(2 * DEFAULT_COST_MODEL.prng_time(1000))
        assert slow.sign_seconds == pytest.approx(2 * DEFAULT_COST_MODEL.sign_seconds)


class TestSimulateRound:
    def _config(self, n=100, m=8, workload=None, **kwargs):
        return RoundSimConfig(
            num_clients=n,
            num_servers=m,
            workload=workload or Workload.microblog(n),
            topology=deterlab_topology(),
            **kwargs,
        )

    def test_timing_positive(self):
        timing = simulate_round(self._config(), random.Random(1))
        assert timing.client_submission > 0
        assert timing.server_processing > 0
        assert timing.total == pytest.approx(
            timing.client_submission + timing.server_processing
        )

    def test_more_clients_slower(self):
        small = simulate_round(self._config(n=64), random.Random(1))
        large = simulate_round(self._config(n=4096), random.Random(1))
        assert large.total > small.total

    def test_data_sharing_slower_than_microblog(self):
        micro = simulate_round(self._config(), random.Random(1))
        share = simulate_round(
            self._config(workload=Workload.data_sharing()), random.Random(1)
        )
        assert share.total > micro.total

    def test_contention_slows_clients(self):
        free = simulate_round(self._config(n=640), random.Random(1))
        packed = simulate_round(
            self._config(n=640, client_machines=40), random.Random(1)
        )
        assert packed.client_submission > free.client_submission

    def test_batched_signature_checks_shorten_the_round(self):
        one_at_a_time = replace(DEFAULT_COST_MODEL, batched_signatures=False)
        batched = simulate_round(self._config(n=1024), random.Random(5))
        scalar = simulate_round(
            self._config(n=1024, cost=one_at_a_time), random.Random(5)
        )
        assert batched.total < scalar.total

    def test_pipeline_period_falls_with_depth(self):
        periods = [
            simulate_round(
                self._config(n=1024, m=32, pipeline_depth=depth), random.Random(5)
            ).pipeline_period
            for depth in (1, 2, 4, 8)
        ]
        assert periods[0] > periods[1] >= periods[2] >= periods[3]

    def test_mean_timing(self):
        timings = simulate_rounds(self._config(), 5, seed=3)
        mean = mean_timing(timings)
        assert min(t.total for t in timings) <= mean.total <= max(t.total for t in timings)

    def test_mean_timing_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_timing([])

    def test_deterministic_given_seed(self):
        a = simulate_rounds(self._config(), 3, seed=9)
        b = simulate_rounds(self._config(), 3, seed=9)
        assert [t.total for t in a] == [t.total for t in b]


class TestFullProtocol:
    def test_stage_ordering_matches_paper(self):
        times = simulate_full_protocol(500, 24)
        # Blame shuffle >> key shuffle >> DC-net round (Figure 9 shape).
        assert times.blame_shuffle > times.key_shuffle > times.dcnet_round

    def test_blame_shuffle_exceeds_hour_at_1000(self):
        times = simulate_full_protocol(1000, 24)
        assert times.blame_shuffle > 3600

    def test_stages_grow_with_clients(self):
        small = simulate_full_protocol(24, 24)
        large = simulate_full_protocol(1000, 24)
        assert large.key_shuffle > small.key_shuffle
        assert large.blame_shuffle > small.blame_shuffle
        assert large.blame_evaluation > small.blame_evaluation


class TestDisruptionRecoveryModel:
    def test_batched_hybrid_blame_cheaper_than_unbatched(self):
        from repro.sim.roundsim import simulate_disruption_recovery

        batched = simulate_disruption_recovery(1024, 8, "hybrid", batched=True)
        unbatched = simulate_disruption_recovery(1024, 8, "hybrid", batched=False)
        assert batched.blame < unbatched.blame
        assert batched.detection == unbatched.detection

    def test_batched_verifiable_tax_shrinks(self):
        from repro.sim.roundsim import simulate_disruption_recovery

        batched = simulate_disruption_recovery(512, 8, "verifiable", batched=True)
        unbatched = simulate_disruption_recovery(512, 8, "verifiable", batched=False)
        assert (
            batched.verifiable_overhead_per_round
            < unbatched.verifiable_overhead_per_round
        )

    def test_hybrid_names_a_disruptor_ten_times_sooner_than_xor(self):
        from repro.sim.roundsim import simulate_disruption_recovery

        xor, hybrid, verifiable = (
            simulate_disruption_recovery(1024, 8, mode)
            for mode in ("xor", "hybrid", "verifiable")
        )
        assert hybrid.time_to_blame < xor.time_to_blame / 10
        # Proactive mode names the disruptor in the round and pays every round.
        assert verifiable.blame == 0.0
        assert verifiable.verifiable_overhead_per_round > 0

    def test_xor_model_ignores_batching_flag(self):
        from repro.sim.roundsim import simulate_disruption_recovery

        a = simulate_disruption_recovery(256, 4, "xor", batched=True)
        b = simulate_disruption_recovery(256, 4, "xor", batched=False)
        assert a == b


class TestHybridChurnScenario:
    def test_trace_shape_and_accounting(self):
        from repro.sim.roundsim import simulate_hybrid_churn

        trace = simulate_hybrid_churn(
            256, 4, rounds=10, disruption_prob=0.3, seed=1
        )
        assert len(trace.rounds) == 10
        assert all(r.online_clients >= 4 for r in trace.rounds)
        assert all(r.round_time > 0 for r in trace.rounds)
        for r in trace.rounds:
            assert (r.blame_time > 0) == r.corrupted
        assert trace.total_time == pytest.approx(
            sum(r.round_time + r.blame_time for r in trace.rounds)
        )

    def test_population_churns(self):
        from repro.sim.churn import SessionChurnModel
        from repro.sim.roundsim import simulate_hybrid_churn

        trace = simulate_hybrid_churn(
            512,
            8,
            rounds=12,
            churn=SessionChurnModel(
                mean_session_rounds=3.0, mean_offline_rounds=2.0
            ),
            disruption_prob=0.0,
            seed=2,
        )
        populations = {r.online_clients for r in trace.rounds}
        assert len(populations) > 1  # the online set actually moved
        assert trace.corrupted_rounds == 0
        assert trace.mean_time_to_blame == 0.0

    def test_clean_run_has_no_blame_cost(self):
        from repro.sim.roundsim import simulate_hybrid_churn

        trace = simulate_hybrid_churn(
            128, 4, rounds=6, disruption_prob=0.0, seed=4
        )
        assert all(r.blame_time == 0.0 for r in trace.rounds)
        assert trace.total_time == pytest.approx(
            sum(r.round_time for r in trace.rounds)
        )
