"""Property tests: the pipelined engine is bit-identical to lockstep.

Every test builds two sessions from the same seed, drives one with
:meth:`DissentSession.run_rounds` (lockstep) and the other with
:class:`PipelinedSession` at various window sizes, and asserts that every
observable — certified outputs byte for byte, signatures, round records,
delivered messages, accusation verdicts, expulsions, client queues — is
identical, quorum certificates included.  Drains (schedule changes, disruption, §3.7 failures,
accusation shuffles) are exercised *mid-window* so speculation rollback
is covered, not just the happy path.
"""

import random

import pytest

from repro.core import DissentSession, PhaseLatency, PipelinedSession, Policy
from repro.core.adversary import DisruptorClient, StallingLeader
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.errors import ProtocolError

WINDOWS = (1, 2, 4, 8)


def _clean_session(
    seed=11, num_servers=3, num_clients=6, policy=None, messages=4, stalling=None
):
    def server_factory(definition, index, key, rng):
        cls = StallingLeader if index == stalling else DissentServer
        return cls(definition, index, key, rng)

    session = DissentSession.build(
        num_servers=num_servers,
        num_clients=num_clients,
        seed=seed,
        policy=policy,
        server_factory=server_factory,
    )
    session.setup()
    for i in range(num_clients):
        for k in range(messages):
            session.post(i, f"msg-{i}-{k}".encode())
    return session


def _disruptor_session(seed=11, victim=2, disruptor=4):
    rng = random.Random(seed)
    built = build_keys("test-256", 3, 5, None, rng)
    servers = [
        DissentServer(built.definition, j, key, random.Random(j))
        for j, key in enumerate(built.server_keys)
    ]
    clients = []
    for i, key in enumerate(built.client_keys):
        cls = DisruptorClient if i == disruptor else DissentClient
        clients.append(cls(built.definition, i, key, random.Random(100 + i)))
    session = DissentSession(built.definition, servers, clients, rng)
    session.setup()
    session.clients[disruptor].target_slot = session.clients[victim].slot
    session.post(victim, b"the dissident message")
    return session


def _assert_identical(lock, lock_records, pipe_session, pipe_records):
    assert len(lock_records) == len(pipe_records)
    for a, b in zip(lock_records, pipe_records):
        assert a.round_number == b.round_number
        assert a.status == b.status
        assert a.participation == b.participation
        assert a.shuffle_requested == b.shuffle_requested
        # Deterministic signing: the quorum certificates are equal, not
        # merely both valid (and both None for a failed round).
        assert a.certificate == b.certificate
        if a.output is None:
            assert b.output is None
        else:
            assert a.output.cleartext == b.output.cleartext
            assert a.output.signatures == b.output.signatures
    # The session's own transcript: each round filed once, in order.
    assert pipe_session.records == lock.records
    assert lock.expelled == pipe_session.expelled
    assert lock.convicted_servers == pipe_session.convicted_servers
    for lc, pc in zip(lock.clients, pipe_session.clients):
        assert lc.received == pc.received
        assert list(lc.outbox) == list(pc.outbox)
        assert lc.last_participation == pc.last_participation


class TestBitIdenticalOutputs:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_clean_traffic_all_windows(self, window):
        lock = _clean_session()
        lock_records = lock.run_rounds(10)
        pipe_session = _clean_session()
        pipe = PipelinedSession(pipe_session, window=window)
        pipe_records = pipe.run_rounds(10)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        # Slots open at round 1 and drain when queues empty: the window
        # sizes above must have seen at least one schedule-change drain.
        if window > 1:
            assert pipe.counters.drains >= 1

    def test_stalling_leader_view_changes_identical(self):
        """The view change runs inside the pipeline exactly as in lockstep:
        whenever the staller leads, both drivers certify at view 1."""
        lock = _clean_session(stalling=1)
        lock_records = lock.run_rounds(8)
        views = [r.certificate.view for r in lock_records]
        assert 1 in views and 0 in views
        pipe_session = _clean_session(stalling=1)
        pipe_records = PipelinedSession(pipe_session, window=4).run_rounds(8)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        for record in pipe_records:
            record.certificate.verify(pipe_session.definition)
            assert record.certificate.leader != 1

    @pytest.mark.parametrize("window", (2, 4))
    def test_without_prefetcher_still_identical(self, window):
        lock = _clean_session(seed=23)
        lock_records = lock.run_rounds(6)
        pipe_session = _clean_session(seed=23)
        pipe = PipelinedSession(pipe_session, window=window, prefetch=False)
        pipe_records = pipe.run_rounds(6)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)

    def test_prefetcher_serves_every_critical_path_fetch(self):
        pipe_session = _clean_session(seed=31)
        pipe = PipelinedSession(pipe_session, window=4)
        pipe.run_rounds(6)
        assert pipe.prefetcher.misses == 0
        assert pipe.prefetcher.hits > 0


class TestDisruptionMidPipeline:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_blame_verdicts_identical(self, window):
        """A disrupted round mid-window drains and still blames identically."""
        lock = _disruptor_session()
        lock_records = lock.run_rounds(12)
        assert lock.expelled == {4}  # the lockstep baseline convicts

        pipe_session = _disruptor_session()
        pipe = PipelinedSession(pipe_session, window=window)
        pipe_records = pipe.run_rounds(12)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        assert pipe.counters.drains >= 1
        # Disruption detection state must match too (the victim saw it).
        for lc, pc in zip(lock.clients, pipe_session.clients):
            assert lc.disruption_detected == pc.disruption_detected
            assert (lc.pending_accusation is None) == (pc.pending_accusation is None)

    def test_speculative_rounds_discarded_on_drain(self):
        pipe_session = _disruptor_session()
        pipe = PipelinedSession(pipe_session, window=4)
        pipe.run_rounds(12)
        assert pipe.counters.speculative_rounds_discarded >= 1


class TestChurnAndFailure:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_client_offline_with_rounds_in_flight(self, window):
        """A churn trace where clients vanish mid-window, tripping §3.7.

        Round 3's population collapse lands while rounds 4+ are already
        speculatively built; the failed round must re-queue traffic and
        re-anchor the participation basis exactly as in lockstep.
        """
        full = set(range(8))
        plan = [full, full, full, {0, 1, 2}, {0, 1, 2}, full, full, full]
        policy = Policy(alpha=0.9)

        lock = _clean_session(seed=21, num_clients=8, policy=policy, messages=1)
        lock_records = []
        for online in plan:
            record = lock.run_round(online)
            lock_records.append(record)
            if record.shuffle_requested:
                lock.run_accusation_phase()
        assert any(not r.completed for r in lock_records)  # the floor fired

        pipe_session = _clean_session(
            seed=21, num_clients=8, policy=policy, messages=1
        )
        pipe = PipelinedSession(pipe_session, window=window)
        pipe_records = pipe.run_schedule(plan)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        assert pipe.counters.rounds_failed == sum(
            1 for r in lock_records if not r.completed
        )

    @pytest.mark.parametrize("window", (1, 4))
    def test_session_churn_model_trace(self, window):
        """A longer memoryless-churn trace (the sim layer's model)."""
        from repro.sim.churn import SessionChurnModel

        model = SessionChurnModel()
        rng = random.Random(77)
        num_clients = 8
        online = [True] * num_clients
        plan = []
        for r in range(14):
            online = model.step(online, r / 14, rng)
            chosen = {i for i, up in enumerate(online) if up}
            plan.append(chosen or {0})
        policy = Policy(alpha=0.0)  # churn may dip arbitrarily; no floor

        lock = _clean_session(seed=41, num_clients=num_clients, policy=policy)
        lock_records = []
        for online_set in plan:
            record = lock.run_round(online_set)
            lock_records.append(record)
            if record.shuffle_requested:
                lock.run_accusation_phase()

        pipe_session = _clean_session(
            seed=41, num_clients=num_clients, policy=policy
        )
        pipe = PipelinedSession(pipe_session, window=window)
        pipe_records = pipe.run_schedule(plan)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)


class TestVirtualClock:
    def test_lockstep_window_pays_the_sum(self):
        latency = PhaseLatency.uniform(0.01)
        session = _clean_session(seed=51, messages=0)
        pipe = PipelinedSession(session, window=1, latency=latency)
        pipe.run_rounds(5)
        assert pipe.virtual_elapsed == pytest.approx(5 * latency.total)

    def test_deep_window_approaches_the_max_phase(self):
        latency = PhaseLatency.uniform(0.01)
        session = _clean_session(seed=51, messages=0)
        pipe = PipelinedSession(session, window=8, latency=latency)
        pipe.run_rounds(12)
        # All-silent rounds never change the schedule: zero drains, so the
        # steady-state period is one phase latency per round (plus the
        # first round's fill).
        assert pipe.counters.drains == 0
        expected = latency.total + 11 * 0.01
        assert pipe.virtual_elapsed == pytest.approx(expected)

    def test_four_rounds_in_flight_at_least_double_lockstep_throughput(self):
        """Measured: 12 rounds take 1.68 s lockstep, 0.78 s at W = 4 (2.15x).

        LAN-like exchange latencies with the submission window slowest:
        lockstep pays the 140 ms sum every round, a deep pipeline
        approaches the 40 ms maximum.  Pads are derived ahead of need, so
        no round squeezes SHAKE between submission and certified output.
        """
        # submit, inventory, commit, reveal, certify, output
        latency = PhaseLatency(0.040, 0.015, 0.015, 0.025, 0.015, 0.030)

        def run(window):
            session = _clean_session(seed=5, messages=12)
            pipe = PipelinedSession(session, window=window, latency=latency)
            return pipe, [r.output.cleartext for r in pipe.run_rounds(12)]

        lockstep, reference = run(1)
        pipelined, cleartexts = run(4)
        assert cleartexts == reference
        assert lockstep.virtual_elapsed == pytest.approx(12 * latency.total)
        assert pipelined.virtual_elapsed <= lockstep.virtual_elapsed / 2
        assert pipelined.prefetcher.hit_rate == 1.0

    def test_drain_resets_the_pipeline_clock(self):
        latency = PhaseLatency.uniform(0.01)
        lock_like = _clean_session(seed=52)
        pipe = PipelinedSession(lock_like, window=4, latency=latency)
        pipe.run_rounds(6)
        assert pipe.counters.drains >= 1
        # Clock must stay monotonic and beyond one lockstep round.
        assert pipe.virtual_elapsed > latency.total


class TestEngineGuards:
    def test_hybrid_sessions_rejected(self):
        from repro.verdict.hybrid import HybridSession

        session = HybridSession.build(num_servers=2, num_clients=3, seed=5)
        with pytest.raises(ProtocolError):
            PipelinedSession(session)

    def test_window_must_be_positive(self):
        session = _clean_session(seed=53)
        with pytest.raises(ProtocolError):
            PipelinedSession(session, window=0)

    def test_requires_setup(self):
        session = DissentSession.build(num_servers=2, num_clients=3, seed=6)
        pipe = PipelinedSession(session, window=2)
        with pytest.raises(ProtocolError):
            pipe.run_rounds(1)

    def test_server_window_bound_enforced(self):
        session = _clean_session(seed=54)
        server = session.servers[0]
        server.max_rounds_in_flight = 2
        server.open_round(0)
        server.open_round(1)
        with pytest.raises(ProtocolError):
            server.open_round(2)
        with pytest.raises(ProtocolError):
            server.open_round(1)  # duplicate
        server.discard_round(1)
        server.open_round(2)  # freed a slot; ascending order preserved
        with pytest.raises(ProtocolError):
            server.open_round(1)  # out of order

    def test_detach_restores_lockstep_configuration(self):
        session = _clean_session(seed=55)
        pipe = PipelinedSession(session, window=4)
        pipe.run_rounds(3)
        pipe.detach()
        assert all(s.max_rounds_in_flight == 1 for s in session.servers)
        assert all(c.prefetcher is None for c in session.clients)
        session.run_rounds(2)  # lockstep continues where the pipeline left off


class TestArchiveBounds:
    def test_archive_bounded_and_evicted_in_order_across_abandoned_rounds(self):
        """Satellite regression: O(1) insertion-order eviction holds even
        when FAILED (abandoned, never archived) rounds punch holes in the
        round-number sequence."""
        policy = Policy(archive_rounds=3, alpha=0.9)
        session = _clean_session(seed=61, num_clients=8, policy=policy, messages=1)
        full = set(range(8))
        plan = [full, full, full, {0, 1, 2}, full, full, full, full, full]
        statuses = []
        for online in plan:
            statuses.append(session.run_round(online).completed)
        assert False in statuses  # at least one abandoned round
        completed_rounds = [r for r, ok in enumerate(statuses) if ok]
        for server in session.servers:
            assert len(server.archive) <= policy.archive_rounds
            # Insertion-order eviction == oldest-first: exactly the most
            # recent completed rounds survive.
            assert sorted(server.archive) == completed_rounds[-3:]
            assert list(server.archive) == sorted(server.archive)

    @pytest.mark.parametrize("window", (1, 4))
    def test_pipelined_archive_matches_lockstep(self, window):
        policy = Policy(archive_rounds=2)
        lock = _clean_session(seed=62, policy=policy)
        lock.run_rounds(7)
        pipe_session = _clean_session(seed=62, policy=policy)
        PipelinedSession(pipe_session, window=window).run_rounds(7)
        for ls, ps in zip(lock.servers, pipe_session.servers):
            assert list(ls.archive) == list(ps.archive)
            for r in ls.archive:
                assert ls.archive[r].cleartext == ps.archive[r].cleartext
