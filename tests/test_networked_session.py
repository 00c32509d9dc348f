"""End-to-end: `NetworkedSession` is bit-identical to `DissentSession`.

The same seed must produce the same keys, slots, round outputs, records,
delivered messages, and blame verdicts whether the protocol runs as
in-process method calls, as asyncio tasks over loopback or real TCP
sockets, or as spawned node subprocesses on localhost — the only thing
that changes is the transport under the signed envelopes.
"""

import random

import pytest

from repro.core import DissentSession
from repro.core.adversary import (
    DisruptingServer,
    DisruptorClient,
    EquivocatingServer,
)
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.net.runner import NetworkedSession
from repro.persist import encode_coordinator_state
from repro.util.serialization import canonical_json


def build_matched_inprocess(
    group_name="test-256",
    num_servers=3,
    num_clients=8,
    seed=0,
    server_factories=None,
    client_factories=None,
    policy=None,
):
    """A DissentSession whose RNG draws mirror NetworkedSession.build.

    Pass ``group_name=None`` to follow ``DISSENT_GROUP_BACKEND`` as
    ``NetworkedSession.build`` does (this module's parity tests do: CI's
    chaos job runs them on modp1536 and ec25519).
    """
    server_factories = server_factories or {}
    client_factories = client_factories or {}
    rng = random.Random(seed)
    built = build_keys(group_name, num_servers, num_clients, policy, rng)
    servers = []
    for j, key in enumerate(built.server_keys):
        cls, kwargs = server_factories.get(j, (DissentServer, {}))
        servers.append(
            cls(built.definition, j, key, random.Random(rng.getrandbits(64)), **kwargs)
        )
    clients = []
    for i, key in enumerate(built.client_keys):
        cls, kwargs = client_factories.get(i, (DissentClient, {}))
        clients.append(
            cls(built.definition, i, key, random.Random(rng.getrandbits(64)), **kwargs)
        )
    return DissentSession(built.definition, servers, clients, rng)


def victim_slot_for(seed, num_servers=3, num_clients=8, victim=2):
    """Deterministically discover the victim's slot with a throwaway run."""
    probe = DissentSession.build(
        num_servers=num_servers, num_clients=num_clients, seed=seed
    )
    probe.setup()
    return probe.clients[victim].slot


def drive_honest(session):
    session.setup()
    session.post(2, b"meet at the fountain at noon")
    session.post(5, b"bring the documents")
    records = [session.run_round()]
    records.append(session.run_round({0, 2, 3, 5, 6}))
    records.extend(session.run_rounds(2))
    return records, session.delivered_messages(0), session.delivered_messages(3)


def drive_blame(session, victim=2, rounds=14):
    session.setup()
    session.post(victim, b"the message they tried to jam")
    records = []
    verdicts = []
    for _ in range(rounds):
        record = session.run_round()
        records.append(record)
        if record.shuffle_requested:
            verdicts = session.run_accusation_phase()
            if verdicts:
                break
    # Service restored after expulsion: the jammed message gets through.
    outcome = session.run_until_quiet()
    return (
        records,
        verdicts,
        sorted(session.expelled),
        sorted(session.convicted_servers),
        outcome,
        session.delivered_messages(0),
        # All eight fields of the coordinator's state as a checkpoint would
        # hold them: round counter, records with their certificates,
        # membership, convictions, proofs, slot schedule and the RNG.
        canonical_json(encode_coordinator_state(session)),
    )


class TestLoopbackParity:
    def test_honest_session_bit_identical(self):
        expected = drive_honest(build_matched_inprocess(None, seed=2012))
        with NetworkedSession.build(
            num_servers=3, num_clients=8, seed=2012, mode="loopback"
        ) as session:
            actual = drive_honest(session)
        assert actual == expected
        # The partial-online round fell below the §3.7 floor on both sides.
        assert not expected[0][1].completed

    def test_run_until_quiet_parity(self):
        inproc = build_matched_inprocess(None, num_clients=5, seed=44)
        inproc.setup()
        inproc.post(1, b"drain me")
        expected = inproc.run_until_quiet()
        with NetworkedSession.build(
            num_servers=3, num_clients=5, seed=44, mode="loopback"
        ) as session:
            session.setup()
            session.post(1, b"drain me")
            actual = session.run_until_quiet()
        assert actual == expected
        assert actual.drained

    def test_equivocating_server_convicted_by_wire_rebuttal(self):
        # Trace case (c): the framed client's DLEQ rebuttal crosses the
        # wire and convicts the equivocating server, identically.
        seed = 21
        slot = victim_slot_for(seed, num_clients=6)

        class EquivocatingDisrupting(EquivocatingServer, DisruptingServer):
            pass

        factories = {
            1: (EquivocatingDisrupting, {"target_slot": slot, "frame_client": 2})
        }
        expected = drive_blame(
            build_matched_inprocess(
                None, num_clients=6, seed=seed, server_factories=factories
            )
        )
        with NetworkedSession.build(
            num_servers=3, num_clients=6, seed=seed, mode="loopback",
            server_factories=factories,
        ) as session:
            actual = drive_blame(session)
        assert actual == expected
        assert expected[3] == [1]  # the lying server, not the honest client
        assert expected[2] == []


class TestTcpParity:
    def test_disruption_and_blame_bit_identical_over_sockets(self):
        # Acceptance scenario: 3 servers / 8 clients over real asyncio TCP,
        # including a disruptor traced, expelled, and service restored.
        seed = 11
        slot = victim_slot_for(seed)
        factories = {5: (DisruptorClient, {"target_slot": slot})}
        expected = drive_blame(
            build_matched_inprocess(None, seed=seed, client_factories=factories)
        )
        with NetworkedSession.build(
            num_servers=3, num_clients=8, seed=seed, mode="tcp",
            client_factories=factories,
        ) as session:
            actual = drive_blame(session)
        assert actual == expected
        records, verdicts, expelled, convicted, outcome, delivered, state = expected
        assert b'"slot_elements"' in state and b'"rng_state"' in state
        assert expelled == [5] and convicted == []
        assert verdicts[0].culprit_kind == "client"
        assert outcome.drained
        assert b"the message they tried to jam" in [m for _, _, m in delivered]


class TestSubprocessParity:
    def test_spawned_processes_bit_identical(self):
        # 3 servers + 8 clients as real operating-system processes talking
        # to the hub over localhost TCP; the disruptor rides along as a
        # spawned adversarial node class.
        seed = 11
        slot = victim_slot_for(seed)
        factories = {5: (DisruptorClient, {"target_slot": slot})}
        expected = drive_blame(
            build_matched_inprocess(None, seed=seed, client_factories=factories)
        )
        with NetworkedSession.build(
            num_servers=3, num_clients=8, seed=seed, mode="subprocess",
            client_factories=factories,
        ) as session:
            actual = drive_blame(session)
        assert actual == expected
        assert expected[2] == [5]


class TestSurface:
    def test_setup_twice_rejected(self):
        from repro.errors import ProtocolError

        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=1, mode="loopback"
        ) as session:
            session.setup()
            with pytest.raises(ProtocolError):
                session.setup()

    def test_rounds_before_setup_rejected(self):
        from repro.errors import ProtocolError

        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=1, mode="loopback"
        ) as session:
            with pytest.raises(ProtocolError):
                session.run_round()

    def test_legacy_three_field_round_done_is_a_typed_error(self, monkeypatch):
        """No sender has packed a certificate-less ``round-done`` since the
        round engine; the coordinator refuses one instead of defaulting."""
        from repro.errors import WireDecodeError
        from repro.net import node
        from repro.util.serialization import pack_fields, unpack_fields

        modern = node.encode_round_done_body
        monkeypatch.setattr(
            node,
            "encode_round_done_body",
            lambda group, done: pack_fields(*unpack_fields(modern(group, done))[:3]),
        )
        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=1, mode="loopback"
        ) as session:
            session.setup()
            with pytest.raises(WireDecodeError, match="exactly 5 fields"):
                session.run_round()

    def test_two_verdicts_naming_one_client_expel_it_once(self, tmp_path):
        """Two victims of one disruptor mean two accusations and two
        verdicts; the expulsion, its counter and its audit entry happen
        once, on either driver."""
        from repro.core.accusation import TraceVerdict
        from repro.persist import read_audit_log

        verdicts = [
            TraceVerdict("client", 2, "first victim's accusation"),
            TraceVerdict("client", 2, "second victim's accusation"),
        ]
        inproc = DissentSession.build(
            num_servers=2, num_clients=4, seed=9, telemetry=True
        )
        inproc.apply_verdicts(verdicts)
        assert inproc.expelled == {2}
        assert inproc.metrics()["counters"]["session.expulsions"] == 1

        audit = tmp_path / "audit.ndjson"
        with NetworkedSession.build(
            num_servers=2, num_clients=4, seed=9, mode="loopback",
            audit_path=str(audit),
        ) as session:
            session.apply_verdicts(verdicts)
            assert session.expelled == {2}
            assert session.metrics()["counters"]["session.expulsions"] == 1
        events = [entry["event"] for entry in read_audit_log(audit)]
        assert events.count("blame") == 2
        assert events.count("expulsion") == 1

    def test_close_is_idempotent(self):
        session = NetworkedSession.build(
            num_servers=2, num_clients=3, seed=1, mode="loopback"
        )
        session.setup()
        session.close()
        session.close()
