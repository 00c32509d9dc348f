"""Chaos harness: reconnect-and-replay, crash restarts, degradation.

The property under test throughout is the one the paper's determinism
buys us: for a fixed seed, a run that suffers connection kills, frame
duplication, node crashes, or a coordinator restart must deliver the
same cleartexts — bit for bit — as an unfaulted run, or else degrade
explicitly (a FAILED record plus an audited expulsion) per §3.7.  No
scenario is allowed to hang.

Every scenario compares against a loopback baseline with the same seed,
leaning on the mode-parity invariant the networked-session suite pins.
"""

import asyncio
import socket
import time

import pytest

from repro.core.config import Policy
from repro.core.rounds import RoundStatus
from repro.crypto.groups import resolve_group_name
from repro.errors import PeerUnreachable, SessionTimeout
from repro.net.runner import NetworkedSession
from repro.net.transport import FaultSchedule, RetryPolicy, connect_tcp
from repro.persist import (
    codec,
    encode_coordinator_state,
    read_audit_log,
    read_checkpoint,
    restore_session,
    save_session,
)
from repro.util.serialization import unpack_fields
from tests.test_networked_session import build_matched_inprocess

#: Sessions here leave ``group_name`` unset, so ``DISSENT_GROUP_BACKEND``
#: steers the whole chaos suite (the CI chaos job runs it under both
#: modp1536 and ec25519); locally it defaults to the fast test group.
GROUP = resolve_group_name()
#: The pure-python 1536-bit modulus makes rounds ~100x slower — scale
#: the barrier timeouts so a slow healthy round is not mistaken for a
#: dark peer.
SLOW = GROUP.startswith("modp")

#: Two anonymous posts from a 2-server / 3-client group; small enough
#: that every chaos scenario stays a few seconds on the test backend.
POSTS = ((0, b"meet at dawn"), (2, b"burn the ledger"))


def drive(session, rounds, hook=None):
    """Run ``rounds`` rounds, invoking ``hook(session, n)`` before each."""
    session.setup()
    for index, message in POSTS:
        session.post(index, message)
    records = []
    for n in range(rounds):
        if hook is not None:
            hook(session, n)
        records.append(session.run_round())
    return records


def cleartexts(records):
    return [r.output.cleartext if r.output else None for r in records]


def baseline(seed, rounds=4):
    """Unfaulted loopback run: the bit-identical reference."""
    with NetworkedSession.build(num_servers=2, num_clients=3, seed=seed) as session:
        records = drive(session, rounds)
        delivered = session.delivered_messages(0)
    return cleartexts(records), delivered


def chaos_session(seed, tmp_path=None, **kwargs):
    kwargs.setdefault("num_servers", 2)
    kwargs.setdefault("num_clients", 3)
    kwargs.setdefault("mode", "tcp")
    if tmp_path is not None:
        kwargs.setdefault("checkpoint_dir", str(tmp_path / "ckpt"))
        kwargs.setdefault("audit_path", str(tmp_path / "audit.ndjson"))
    return NetworkedSession.build(seed=seed, **kwargs)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.05, max_delay=0.4, jitter=0.0
        )
        assert [policy.delay(i) for i in range(6)] == [
            0.05, 0.1, 0.2, 0.4, 0.4, 0.4
        ]
        assert policy.budget() == pytest.approx(sum(policy.delay(i) for i in range(6)))

    def test_jitter_is_deterministic_per_seed(self):
        one = RetryPolicy(seed=1)
        assert one.delay(3) == RetryPolicy(seed=1).delay(3)
        assert one.delay(3) != RetryPolicy(seed=2).delay(3)
        # Jitter stays within its advertised ±25% band.
        assert 0.75 * 0.1 <= one.delay(1) <= 1.25 * 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_policy_knobs_flow_into_retry_policy(self):
        policy = Policy(
            reconnect_attempts=3,
            reconnect_base_delay=0.01,
            reconnect_max_delay=0.04,
        )
        retry = policy.retry_policy(seed=5)
        assert retry.max_attempts == 3
        assert retry.base_delay == 0.01
        assert retry.seed == 5


class TestTypedErrors:
    def test_connect_retry_exhaustion_is_typed(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02)
        with pytest.raises(PeerUnreachable) as excinfo:
            asyncio.run(connect_tcp("127.0.0.1", port, retry=retry))
        err = excinfo.value
        assert err.peer == f"127.0.0.1:{port}"
        assert err.kind == "connect"
        assert err.deadline == pytest.approx(retry.budget())
        # PeerUnreachable is a SessionTimeout, so one except clause
        # catches both the dial and the in-round flavors.
        assert isinstance(err, SessionTimeout)


class TestReconnectReplay:
    def test_severed_link_reconnects_bit_identically(self):
        """Cut a client's hub link between rounds; the node re-dials,
        resumes via the hello high-water mark, and the transcript stays
        bit-identical to the unfaulted baseline."""
        expected_outputs, expected_delivered = baseline(seed=11)
        with chaos_session(seed=11) as session:
            victim = session.node_name("client", 1)

            def sever(s, n):
                if n == 2:
                    s.kill_connection(victim)
                    s.wait_live(victim, timeout=10.0)

            records = drive(session, 4, hook=sever)
            assert cleartexts(records) == expected_outputs
            assert session.delivered_messages(0) == expected_delivered
            counters = session.metrics()["counters"]
            assert counters.get("net.reconnect.attempts", 0) >= 1
            assert counters.get("net.reconnect.successes", 0) >= 1

    def test_fault_schedule_parity_over_tcp(self):
        """Mid-round connection kill plus duplicated and delayed frames:
        replay and idempotent envelope handling keep the transcript
        identical."""
        expected_outputs, expected_delivered = baseline(seed=23)
        faults = {
            "client-1": FaultSchedule(kill=frozenset({4})),
            "server-0": FaultSchedule(dup=frozenset({2}), extra_delay={3: 0.05}),
        }
        with chaos_session(seed=23, faults=faults) as session:
            records = drive(session, 4)
            assert cleartexts(records) == expected_outputs
            assert session.delivered_messages(0) == expected_delivered
            counters = session.metrics()["counters"]
            assert counters.get("net.replay.envelopes", 0) >= 1

    def test_fault_schedule_parity_over_subprocess(self):
        """The same schedule drives subprocess mode: faults are applied
        hub-side, so real child processes see identical pathologies."""
        expected_outputs, expected_delivered = baseline(seed=23)
        faults = {"client-1": FaultSchedule(kill=frozenset({4}))}
        with chaos_session(
            seed=23, mode="subprocess", faults=faults,
            timeout=120.0 if SLOW else 30.0,
        ) as session:
            records = drive(session, 4)
            assert cleartexts(records) == expected_outputs
            assert session.delivered_messages(0) == expected_delivered


class TestCrashRestart:
    @pytest.mark.parametrize("mode", ["tcp", "subprocess"])
    def test_server_killed_between_rounds_recovers(self, tmp_path, mode):
        """SIGKILL a server between rounds, restart it from its own
        checkpoint; the resume handshake replays what it missed and the
        transcript stays bit-identical."""
        expected_outputs, expected_delivered = baseline(seed=23)
        timeout = 120.0 if SLOW else 30.0 if mode == "subprocess" else 15.0
        with chaos_session(seed=23, tmp_path=tmp_path, mode=mode,
                           timeout=timeout) as session:
            victim = session.node_name("server", 1)

            def crash(s, n):
                if n == 2:
                    s.kill_node("server", 1)
                    s.wait_dark(victim, timeout=10.0)
                    s.restart_node("server", 1)
                    s.wait_live(victim, timeout=10.0)

            records = drive(session, 4, hook=crash)
            assert cleartexts(records) == expected_outputs
            assert session.delivered_messages(0) == expected_delivered
        events = [e["event"] for e in read_audit_log(tmp_path / "audit.ndjson")]
        assert "resume" in events

    def test_client_killed_and_restarted_mid_session(self, tmp_path):
        """Kill a client outright (not just its link) and restart it
        from checkpoint before the next barrier: no abandon, no
        expulsion, bit-identical output."""
        expected_outputs, expected_delivered = baseline(seed=11)
        with chaos_session(seed=11, tmp_path=tmp_path) as session:
            victim = session.node_name("client", 1)

            def crash(s, n):
                if n == 3:
                    s.kill_node("client", 1)
                    s.wait_dark(victim, timeout=10.0)
                    s.restart_node("client", 1)
                    s.wait_live(victim, timeout=10.0)

            records = drive(session, 4, hook=crash)
            assert cleartexts(records) == expected_outputs
            assert session.delivered_messages(0) == expected_delivered
            assert session.expelled == set()


class TestGracefulDegradation:
    def test_dark_client_aborts_round_then_is_expelled(self, tmp_path):
        """§3.7: a client dark past the retry budget cannot wedge the
        group.  The next round is abandoned (FAILED record, audited),
        and at the following barrier the client is expelled so the
        survivors complete normally."""
        policy = Policy(
            reconnect_attempts=2,
            reconnect_base_delay=0.01,
            reconnect_max_delay=0.02,
        )
        with chaos_session(
            seed=47, tmp_path=tmp_path, mode="subprocess",
            policy=policy, timeout=20.0 if SLOW else 4.0,
        ) as session:
            session.setup()
            session.post(0, b"the survivors' message")
            first = session.run_round()
            assert first.status is RoundStatus.COMPLETED

            session.kill_node("client", 2)
            session.wait_dark(session.node_name("client", 2), timeout=10.0)
            failed = session.run_round()
            assert failed.status is RoundStatus.FAILED

            time.sleep(policy.retry_policy().budget() + 0.1)
            recovered = session.run_round()
            assert recovered.status is RoundStatus.COMPLETED
            assert 2 in session.expelled
            # The survivors' traffic still went through.
            messages = [m for _, _, m in session.delivered_messages(0)]
            assert b"the survivors' message" in messages
            counters = session.metrics()["counters"]
            assert counters.get("session.rounds_abandoned", 0) >= 1
        events = [e["event"] for e in read_audit_log(tmp_path / "audit.ndjson")]
        assert "abandon" in events
        assert "expulsion" in events


class TestCoordinatorRestore:
    def test_checkpoint_restore_continues_without_gaps(self, tmp_path):
        """Checkpoint the whole session at a barrier, tear everything
        down, restore into fresh processes: the continued run has no
        round-record gaps and matches the uninterrupted baseline."""
        expected_outputs, expected_delivered = baseline(seed=31)
        path = tmp_path / "session.ckpt"
        audit = str(tmp_path / "audit.ndjson")

        session = chaos_session(seed=31, audit_path=audit)
        try:
            drive(session, 2)
            session.checkpoint(path)
        finally:
            session.close()

        with NetworkedSession.restore(path, audit_path=audit) as restored:
            restored.run_round()
            restored.run_round()
            assert [r.round_number for r in restored.records] == [0, 1, 2, 3]
            assert cleartexts(restored.records) == expected_outputs
            assert restored.delivered_messages(0) == expected_delivered

        events = [e["event"] for e in read_audit_log(audit)]
        assert events.count("checkpoint") == 1
        assert "resume" in events

    def test_checkpoint_file_is_portable(self, tmp_path):
        path = tmp_path / "session.ckpt"
        with chaos_session(seed=31, mode="loopback") as session:
            drive(session, 1)
            session.checkpoint(path)
        # Decoded with no session at all: keys, definition and node sections.
        state = codec.decode_net_session(read_checkpoint(path, kind="net-session"))
        assert unpack_fields(state.coordinator)[0] == 1  # round_number
        assert len(state.nodes) == 5  # 2 servers + 3 clients

    def test_coordinator_section_is_the_in_process_one(self, tmp_path):
        """A networked and an in-process checkpoint cut at the same barrier
        hold byte-equal ``coordinator`` sections — round counter, records
        and certificates, the delivery log and its schedule, membership,
        convictions, proofs, slot schedule, RNG — and still do one round
        after both are restored."""
        inproc = build_matched_inprocess(GROUP, 2, 3, seed=31)
        drive(inproc, 2)
        save_session(inproc, tmp_path / "inproc.ckpt")
        with chaos_session(seed=31, mode="loopback") as session:
            drive(session, 2)
            session.checkpoint(tmp_path / "net.ckpt")

        def section(name, kind):
            fields = unpack_fields(read_checkpoint(tmp_path / name, kind=kind))
            return fields[list(codec.SECTIONS[kind].fields).index("coordinator")]

        shared = section("net.ckpt", "net-session")
        assert shared == section("inproc.ckpt", "session")
        assert len(unpack_fields(shared)) == 10

        fresh = build_matched_inprocess(GROUP, 2, 3, seed=31)
        restore_session(fresh, tmp_path / "inproc.ckpt")
        fresh.run_round()
        with NetworkedSession.restore(tmp_path / "net.ckpt") as restored:
            restored.run_round()
            assert encode_coordinator_state(restored) == (
                encode_coordinator_state(fresh)
            )
        assert fresh.round_number == 3
