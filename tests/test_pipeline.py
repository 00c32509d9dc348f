"""Property tests: the round loop is bit-identical to lockstep at every window.

Every test builds two sessions from the same seed, drives one with
:meth:`DissentSession.run_rounds` in lockstep (``window=1``, which
speculates nothing) and the other with ``run_rounds(n, window=W)`` or
``run_schedule(plan, window=W)`` at various window sizes, and asserts that every
observable — certified outputs byte for byte, signatures, round records,
delivered messages, accusation verdicts, expulsions, client queues — is
identical, quorum certificates included.  Drains (schedule changes, disruption, §3.7 failures,
accusation shuffles) are exercised *mid-window* so speculation rollback
is covered, not just the happy path.  Drain counts are read from the
session's metrics registry.
"""

import collections
import random

import pytest

from repro.core import DissentSession, Policy
from repro.core.adversary import DisruptorClient, StallingLeader
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.crypto import prng
from repro.errors import ProtocolError
from repro.obs import round_trace_id
from repro.obs.critical import assemble_traces
from repro.verdict.hybrid import build_hybrid_with_disruptor
from tests.helpers import assert_schedules_agree

WINDOWS = (1, 2, 4, 8)


def _clean_session(
    seed=11,
    num_servers=3,
    num_clients=6,
    policy=None,
    messages=4,
    stalling=None,
    telemetry=False,
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
    if telemetry:
        session.enable_telemetry()
    session.setup()
    for i in range(num_clients):
        for k in range(messages):
            session.post(i, f"msg-{i}-{k}".encode())
    return session


def _hybrid_disruptor_session(telemetry=False):
    session, _ = build_hybrid_with_disruptor(seed=33)
    if telemetry:
        session.enable_telemetry()
    session.post(1, b"the dissident message")
    return session


def _disruptor_session(seed=11, victim=2, disruptor=4, telemetry=False):
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
    if telemetry:
        session.enable_telemetry()
    session.setup()
    session.clients[disruptor].target_slot = session.clients[victim].slot
    session.post(victim, b"the dissident message")
    return session


def _count(session, name):
    """A counter from the session's registry (0 if never bumped)."""
    return session.registry.snapshot()["counters"].get(name, 0)


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
    # One delivery log per session, and every client stepped the schedule
    # that decodes it: each client observed exactly the log.
    assert pipe_session.delivered == lock.delivered
    assert pipe_session.delivery_schedule == lock.delivery_schedule
    assert_schedules_agree(lock, lock.clients)
    assert_schedules_agree(pipe_session, pipe_session.clients)
    for lc, pc in zip(lock.clients, pipe_session.clients):
        assert list(lc.outbox) == list(pc.outbox)
        assert lc.last_participation == pc.last_participation


class TestBitIdenticalOutputs:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_clean_traffic_all_windows(self, window):
        lock = _clean_session()
        lock_records = lock.run_rounds(10)
        pipe_session = _clean_session(telemetry=True)
        pipe_records = pipe_session.run_rounds(10, window=window)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        # Slots open at round 1 and drain when queues empty: the window
        # sizes above must have seen at least one schedule-change drain.
        if window > 1:
            assert _count(pipe_session, "pipeline.drains") >= 1

    def test_stalling_leader_view_changes_identical(self):
        """The view change runs inside the pipeline exactly as in lockstep:
        whenever the staller leads, both drivers certify at view 1."""
        lock = _clean_session(stalling=1)
        lock_records = lock.run_rounds(8)
        views = [r.certificate.view for r in lock_records]
        assert 1 in views and 0 in views
        pipe_session = _clean_session(stalling=1)
        pipe_records = pipe_session.run_rounds(8, window=4)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        for record in pipe_records:
            record.certificate.verify(pipe_session.definition)
            assert record.certificate.leader != 1


class TestPadWork:
    @pytest.mark.parametrize("mode", ("xor", "hybrid"))
    @pytest.mark.parametrize(
        "window", (None, *WINDOWS), ids=("lockstep", *(f"W{w}" for w in WINDOWS))
    )
    def test_every_endpoint_squeezes_its_own_pads(self, window, mode, monkeypatch):
        """2·N·M pair pads a round on every driver and in both modes: each
        client derives its M pads and each server its N, as on separate
        machines; a window overlaps rounds, it never shares one endpoint's
        pad with the other, and hybrid mode adds no pad of its own."""
        num_clients, num_servers = 6, 3
        session = _clean_session(
            num_clients=num_clients,
            num_servers=num_servers,
            messages=0,
            telemetry=True,
            policy=Policy(dcnet_mode=mode),
        )
        squeezes = collections.Counter()
        pair_stream = prng.pair_stream

        def counting(secret, round_number, length):
            squeezes[round_number] += 1
            return pair_stream(secret, round_number, length)

        monkeypatch.setattr(prng, "pair_stream", counting)
        first = session.round_number
        if window is None:
            session.run_rounds(8)
        else:
            session.run_rounds(8, window=window)
        assert _count(session, "pipeline.drains") == 0
        per_round = 2 * num_clients * num_servers
        assert squeezes == {r: per_round for r in range(first, first + 8)}


class TestLockstepSpeculatesNothing:
    @pytest.mark.parametrize("mode", ("xor", "hybrid"))
    def test_window_one_takes_no_snapshot_and_confirms_nothing_early(
        self, mode, monkeypatch
    ):
        """At W = 1 no round is in flight when the next is built, so the
        loop does lockstep's work: no client snapshot, no speculative
        delivery confirmation."""
        calls = collections.Counter()
        for name in ("snapshot_state", "speculate_delivery"):
            original = getattr(DissentClient, name)

            def counted(self, *args, name=name, original=original):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(DissentClient, name, counted)
        session = _clean_session(policy=Policy(dcnet_mode=mode))
        records = session.run_rounds(8)
        assert len(records) == 8 and all(r.completed for r in records)
        assert calls == {}
        # The same counters see a window's speculation.
        session.run_rounds(4, window=4)
        assert calls["snapshot_state"] > 0 and calls["speculate_delivery"] > 0


class TestOneTracePerRound:
    @pytest.mark.parametrize("window", (1, 4))
    def test_every_round_span_lands_in_its_rounds_trace(self, window):
        """Each round is one ``round`` span under the networked runner's
        trace id, and its build, submit, engine-phase and output spans are
        its children, also when rounds overlap."""
        session = _clean_session(
            seed=5, num_servers=3, num_clients=6, messages=2, telemetry=True
        )
        first = len(session.tracer.events)
        records = session.run_rounds(4, window=window)
        events = [event.as_dict() for event in list(session.tracer.events)[first:]]
        traces = assemble_traces(events)
        group_id = session.definition.group_id()
        assert set(traces) == {
            round_trace_id(group_id, record.round_number) for record in records
        }
        assert sum(len(spans) for spans in traces.values()) == len(events)
        for record in records:
            spans = traces[round_trace_id(group_id, record.round_number)]
            roots = [s for s in spans if s["name"] == "round"]
            assert len(roots) == 1 and roots[0]["parent"] is None
            phases = {s["phase"] for s in spans if s["name"] == "phase"}
            assert {"build", "submit", "output"} <= phases


class TestDisruptionMidPipeline:
    @pytest.mark.parametrize(
        "build", (_disruptor_session, _hybrid_disruptor_session), ids=("xor", "hybrid")
    )
    @pytest.mark.parametrize("window", WINDOWS)
    def test_blame_verdicts_identical(self, window, build):
        """A disrupted round mid-window drains and still blames identically:
        by the accusation shuffle in XOR mode, by the replay in hybrid."""
        lock = build()
        lock_records = lock.run_rounds(12)
        assert lock.expelled == {4}  # the lockstep baseline convicts

        pipe_session = build(telemetry=True)
        pipe_records = pipe_session.run_rounds(12, window=window)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        assert getattr(lock, "blames", None) == getattr(pipe_session, "blames", None)
        # W = 1 builds no round early, so it has nothing to drain.
        assert (_count(pipe_session, "pipeline.drains") >= 1) == (window > 1)
        # Disruption detection state must match too (the victim saw it).
        for lc, pc in zip(lock.clients, pipe_session.clients):
            assert lc.disruption_detected == pc.disruption_detected
            assert (lc.pending_accusation is None) == (pc.pending_accusation is None)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_replaying_an_absent_owners_slot_drains(self, window):
        """Hybrid blame needs no owner: the victim asks for a slot, then
        goes offline, and the jammed slot is replayed with no sent record
        for the pipeline to find disrupted.  The replay expels the
        disruptor, so the rounds built past it must be discarded."""
        victim_offline = set(range(6)) - {1}
        plan = [None] + [victim_offline] * 5

        def build(telemetry=False):
            session, _ = build_hybrid_with_disruptor(
                seed=33, policy=Policy(alpha=0.0)
            )
            if telemetry:
                session.enable_telemetry()
            session.post(1, b"asked for a slot, then left")
            # Traffic in the other slots draws client randomness every
            # round, as the replay does.
            for i in (0, 2, 3, 5):
                for k in range(6):
                    session.post(i, bytes([k]) * 120)
            return session

        lock = build()
        lock_records = [lock.run_round(online) for online in plan]
        assert lock.expelled == {4}
        assert 1 not in lock.servers[0].archive[lock.blames[0].round_number].final_list

        pipe_session = build(telemetry=True)
        pipe_records = pipe_session.run_schedule(plan, window=window)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        assert pipe_session.blames == lock.blames
        assert (_count(pipe_session, "pipeline.drains") >= 1) == (window > 1)

    def test_speculative_rounds_discarded_on_drain(self):
        pipe_session = _disruptor_session(telemetry=True)
        pipe_session.run_rounds(12, window=4)
        assert _count(pipe_session, "pipeline.rounds_discarded") >= 1


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
            seed=21, num_clients=8, policy=policy, messages=1, telemetry=True
        )
        pipe_records = pipe_session.run_schedule(plan, window=window)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)
        assert _count(pipe_session, "session.rounds_failed") == sum(
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
        pipe_records = pipe_session.run_schedule(plan, window=window)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)


class TestEngineGuards:
    def test_window_must_be_positive(self):
        session = _clean_session(seed=53)
        with pytest.raises(ProtocolError):
            session.run_rounds(1, window=0)

    def test_requires_setup(self):
        session = DissentSession.build(num_servers=2, num_clients=3, seed=6)
        with pytest.raises(ProtocolError):
            session.run_rounds(1, window=2)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_no_engine_holds_more_rounds_than_the_window(self, window):
        """The window is the pipeline's alone: it fills every engine to W
        rounds, never past, and leaves none behind."""
        session = _clean_session(seed=54)
        held = []
        for engine in session.engines:

            def begin_round(r, submitters, engine=engine, begin=engine.begin_round):
                effects = begin(r, submitters)
                held.append(len(engine.rounds))
                return effects

            engine.begin_round = begin_round
        session.run_rounds(8, window=window)
        assert max(held) == window
        assert not any(engine.rounds for engine in session.engines)

    def test_lockstep_continues_where_the_pipeline_left_off(self):
        lock = _clean_session(seed=55)
        lock_records = lock.run_rounds(5)
        pipe_session = _clean_session(seed=55)
        pipe_records = pipe_session.run_rounds(3, window=4)
        pipe_records += pipe_session.run_rounds(2)
        _assert_identical(lock, lock_records, pipe_session, pipe_records)


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
        pipe_session.run_rounds(7, window=window)
        for ls, ps in zip(lock.servers, pipe_session.servers):
            assert list(ls.archive) == list(ps.archive)
            for r in ls.archive:
                assert ls.archive[r].cleartext == ps.archive[r].cleartext

    @pytest.mark.parametrize("window", (1, 8))
    def test_hybrid_evidence_covers_the_archive(self, window):
        """Hybrid blame can replay any archived round, so every client keeps
        its sent record of each; a window's speculative builds evict none."""
        policy = Policy(archive_rounds=4, dcnet_mode="hybrid")
        session = _clean_session(seed=63, policy=policy, messages=6)
        covered = []
        after_output = session.after_output

        def checked(record):
            after_output(record)
            archived = set(session.servers[0].archive)
            covered.append(
                all(archived <= set(c.sent_history) for c in session.clients)
            )

        session.after_output = checked
        session.run_rounds(16, window=window)
        assert covered == [True] * 16
        archived = list(session.servers[0].archive)
        assert len(archived) == policy.archive_rounds
        for client in session.clients:
            assert list(client.sent_history) == archived
