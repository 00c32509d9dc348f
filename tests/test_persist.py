"""Durable checkpoints: store format, audit chain, JSON round-trips.

Every restore parity test goes through real serialization — the state is
checkpointed to a file, read back, and decoded into a *freshly built*
session — so in-memory aliasing can never mask a codec gap.  The
round-trip property must hold on both the modp and the ristretto255
group backends (satellite requirement), including scheduler and PRNG
state.
"""

import json
import os
import random

import pytest

from repro.consensus.certificate import EquivocationProof, RoundCertificate
from repro.core import DissentSession
from repro.core.accusation import Accusation
from repro.errors import CheckpointError
from repro.net import wire
from repro.persist import (
    AuditLog,
    codec,
    read_audit_log,
    read_checkpoint,
    restore_session,
    save_session,
    write_checkpoint,
)
from repro.persist.codec import (
    decode_rng_state,
    decode_scheduler,
    encode_rng_state,
    encode_scheduler,
)

#: Fast modp representative + the EC backend (same pairing the backend
#: parity suite uses); ``modp1536`` gets one slow leg below.
BACKENDS = ("test-256", "ec25519")


def built_session(group_name="test-256", seed=7, num_servers=2, num_clients=3):
    session = DissentSession.build(
        group_name=group_name,
        num_servers=num_servers,
        num_clients=num_clients,
        seed=seed,
    )
    session.setup()
    return session


class TestCheckpointStore:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        payload = {"rounds": [1, 2, 3], "note": "barrier"}
        written = write_checkpoint(path, payload, kind="session")
        assert written == os.path.getsize(path)
        assert read_checkpoint(path, kind="session") == payload

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"round": 4}, kind="session")
        document = json.loads(path.read_text())
        document["payload"]["round"] = 5
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_version_and_kind_are_enforced(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"x": 1}, kind="node")
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, kind="session")
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_atomic_replace_keeps_old_on_unencodable(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"round": 1}, kind="session")
        with pytest.raises(CheckpointError, match="JSON-encodable"):
            write_checkpoint(path, {"bad": object()}, kind="session")
        # The original checkpoint survives an aborted overwrite.
        assert read_checkpoint(path)["round"] == 1

    def test_checkpoint_metrics(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        write_checkpoint(tmp_path / "m.ckpt", {"a": 1}, registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["session.checkpoint.bytes"] > 0
        assert snapshot["counters"]["session.checkpoint.seconds"] > 0
        assert "span.phase.checkpoint" in snapshot["histograms"]


class TestAuditLog:
    def test_append_and_verify_chain(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=3, reason="timeout")
        log.append("expulsion", client=2, reason="dark")
        entries = read_audit_log(path)
        assert [e["event"] for e in entries] == ["abandon", "expulsion"]
        assert entries[1]["prev"] == entries[0]["hash"]

    def test_chain_continues_across_reopen(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        AuditLog(path).append("abandon", round=0)
        reopened = AuditLog(path)
        reopened.append("blame", culprit=1)
        entries = read_audit_log(path)
        assert entries[1]["index"] == 1
        assert entries[1]["prev"] == entries[0]["hash"]

    def test_appends_from_racing_threads_keep_one_chain(self, tmp_path):
        """A networked session audits from its caller's thread and from its
        event loop; an unlocked append would hand two entries one index."""
        import sys
        import threading

        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        workers, each = 6, 40

        def hammer(worker):
            for n in range(each):
                log.append("resume", node=f"client-{worker}", replayed=n)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        entries = read_audit_log(path)  # verifies every index and hash link
        assert len(entries) == workers * each
        for worker in range(workers):
            mine = [e["data"]["replayed"] for e in entries
                    if e["data"]["node"] == f"client-{worker}"]
            assert mine == list(range(each))

    def test_tampering_breaks_the_chain(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=0)
        log.append("abandon", round=1)
        lines = path.read_bytes().split(b"\n")
        first = json.loads(lines[0])
        first["data"]["round"] = 9
        lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError):
            read_audit_log(path)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=0)
        with open(path, "ab") as handle:
            handle.write(b'{"index": 1, "event": "abandon"')  # no newline
        assert len(read_audit_log(path)) == 1

    def test_unknown_event_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="unknown audit event"):
            AuditLog(tmp_path / "a.ndjson").append("surprise")


class TestStateCodecs:
    def test_rng_state_round_trips_through_json(self):
        rng = random.Random(123)
        rng.random()
        encoded = json.loads(json.dumps(encode_rng_state(rng.getstate())))
        clone = random.Random()
        clone.setstate(decode_rng_state(encoded))
        assert [clone.random() for _ in range(8)] == [
            rng.random() for _ in range(8)
        ]

    def test_scheduler_round_trips_through_json(self):
        session = built_session()
        session.post(0, b"fill the scheduler with demand")
        session.run_rounds(2)
        scheduler = session.servers[0].scheduler
        encoded = json.loads(json.dumps(encode_scheduler(scheduler)))
        rebuilt = decode_scheduler(encoded, session.definition.policy)
        assert rebuilt.round_number == scheduler.round_number
        assert (
            rebuilt.current_layout().capacities
            == scheduler.current_layout().capacities
        )


def _raise_bug(*args, **kwargs):
    raise RuntimeError("a bug in the callee, not a malformed field")


def _round_output(session, value):
    codec.decode_round_output(session.definition.group, value)


def _certificate(session, value):
    codec.decode_certificate(session.definition.group, value)


def _equivocation_proof(session, value):
    codec.decode_equivocation_proof(session.definition.group, value)


def _archived_envelope(session, value):
    layout = {"num_slots": 1, "capacities": [8]}
    codec.decode_archive(
        session.definition.group,
        {"layout": layout, "received_envelopes": {"0": value}},
    )


def _pending_accusation(session, value):
    client = session.clients[0]
    state = codec.encode_client_state(client)
    codec.decode_client_state(client, {**state, "pending_accusation": value})


#: Each codec decoder that wraps a callee, and the callee it wraps.
CODEC_DECODERS = [
    pytest.param(_round_output, (wire, "decode_round_output_body"), id="round-output"),
    pytest.param(_certificate, (RoundCertificate, "from_wire"), id="certificate"),
    pytest.param(
        _equivocation_proof, (EquivocationProof, "from_wire"), id="equivocation"
    ),
    pytest.param(_archived_envelope, (wire, "decode_envelope"), id="archive"),
    pytest.param(_pending_accusation, (Accusation, "from_bytes"), id="accusation"),
]


class TestDecodersNameTheirErrors:
    """A malformed field is a CheckpointError; a bug underneath propagates.

    Each decoder catches the typed errors of the callee it feeds and what
    ``bytes.fromhex`` raises, nothing else — a callee's ``RuntimeError``
    must not read as a corrupt checkpoint.
    """

    @pytest.fixture(scope="class")
    def session(self):
        return built_session()

    @pytest.mark.parametrize("decode, callee", CODEC_DECODERS)
    @pytest.mark.parametrize(
        "value", ["zz", 7, "00"], ids=["non-hex", "wrong-type", "truncated"]
    )
    def test_malformed_field_is_a_checkpoint_error(
        self, session, decode, callee, value
    ):
        with pytest.raises(CheckpointError):
            decode(session, value)

    @pytest.mark.parametrize("decode, callee", CODEC_DECODERS)
    def test_a_bug_underneath_propagates(self, session, decode, callee, monkeypatch):
        monkeypatch.setattr(*callee, _raise_bug)
        with pytest.raises(RuntimeError, match="a bug in the callee"):
            decode(session, "00")


@pytest.mark.parametrize("group_name", BACKENDS)
class TestSessionRoundTrip:
    def test_restored_session_is_bit_identical(self, tmp_path, group_name):
        """Checkpoint at a barrier, restore into a fresh session, and the
        next rounds must be bit-identical to the uninterrupted original —
        scheduler, PRNG, archives, and pseudonym keys all included."""
        path = tmp_path / "session.ckpt"
        session = built_session(group_name=group_name)
        session.post(0, b"before the barrier")
        session.post(2, b"queued across it")
        session.run_rounds(2)
        save_session(session, path)

        fresh = built_session(group_name=group_name)
        restore_session(fresh, path)
        continued = session.run_rounds(3)
        restored = fresh.run_rounds(3)
        assert [r.output.cleartext for r in restored] == [
            r.output.cleartext for r in continued
        ]
        assert fresh.delivered_messages(1) == session.delivered_messages(1)

    def test_checkpoint_file_is_portable_json(self, tmp_path, group_name):
        path = tmp_path / "session.ckpt"
        session = built_session(group_name=group_name)
        session.run_rounds(1)
        save_session(session, path)
        document = json.loads(path.read_text())
        assert document["kind"] == "session"
        payload = document["payload"]
        assert payload["coordinator"]["round_number"] == 1
        assert len(payload["servers"]) == 2
        assert len(payload["clients"]) == 3


class TestHybridRoundTrip:
    """Verdict's hybrid mode keeps blame evidence the XOR path does not —
    each client's sent history — and reads its slot layout off a
    scheduler; all of it must survive a file."""

    @pytest.mark.parametrize("group_name", BACKENDS)
    def test_restored_hybrid_session_runs_on(self, tmp_path, group_name):
        from repro.core import Policy, build_session

        def build():
            session = build_session(
                group_name, 3, 6, Policy(dcnet_mode="hybrid"), seed=5
            )
            session.setup()
            return session

        path = tmp_path / "hybrid.ckpt"
        session = build()
        for n in range(4):
            session.post(n, f"post {n}".encode())
            session.run_round()
        session.post(5, b"queued across the barrier")
        save_session(session, path)
        fresh = build()
        restore_session(fresh, path)
        assert [c.sent_history for c in fresh.clients] == [
            c.sent_history for c in session.clients
        ]
        continued = session.run_rounds(3)
        restored = fresh.run_rounds(3)
        assert [r.output.cleartext for r in restored] == [
            r.output.cleartext for r in continued
        ]
        assert fresh.delivered_messages(0) == session.delivered_messages(0)
        assert fresh.delivered_messages(0)[-1][2] == b"queued across the barrier"

    def test_blame_after_a_restore_matches_the_uninterrupted_run(self, tmp_path):
        from repro.verdict.hybrid import build_hybrid_with_disruptor

        def drive(session, rounds):
            # The round after the expulsion falls below the alpha floor
            # (5 of 6) and fails; its record has no output.
            records = [session.run_round() for _ in range(rounds)]
            return [r.output.cleartext if r.output else None for r in records]

        # Seed 30: the jammed slot shows no witness bit in rounds 1-4 and
        # the disruptor is named in round 5.
        whole, slot = build_hybrid_with_disruptor(seed=30)
        whole.post(1, b"jam target")
        expected = drive(whole, 8)
        assert [(b.round_number, b.status) for b in whole.blames] == [
            (1, "no-witness"), (2, "no-witness"), (3, "no-witness"),
            (4, "no-witness"), (5, "blamed"),
        ]  # fmt: skip

        path = tmp_path / "jammed.ckpt"
        first, _ = build_hybrid_with_disruptor(seed=30)
        first.post(1, b"jam target")
        before = drive(first, 3)
        save_session(first, path)
        restored, _ = build_hybrid_with_disruptor(seed=30)
        restore_session(restored, path)
        assert before + drive(restored, 5) == expected
        assert restored.blames == whole.blames[2:]
        assert restored.blames[-1].client_culprits == (4,)
        assert restored.expelled == whole.expelled == {4}
        assert restored.delivered_messages(0) == whole.delivered_messages(0)
        # Round 2 ran before the checkpoint: replaying it now needs the
        # archived round and the victim's own sent record.
        assert restored.replay_blame(2, slot) == whole.blames[1]


class TestModpWideBackend:
    def test_modp1536_round_trips_once(self, tmp_path):
        """One slow leg on the real 1536-bit modulus: the hex codecs must
        not assume the test group's element width."""
        path = tmp_path / "wide.ckpt"
        session = built_session(group_name="modp1536", seed=3)
        session.post(1, b"wide")
        session.run_rounds(1)
        save_session(session, path)
        fresh = built_session(group_name="modp1536", seed=3)
        restore_session(fresh, path)
        continued = session.run_rounds(1)
        restored = fresh.run_rounds(1)
        assert [r.output.cleartext for r in restored] == [
            r.output.cleartext for r in continued
        ]


class TestMismatchedRestore:
    def test_wrong_group_size_is_refused(self, tmp_path):
        path = tmp_path / "session.ckpt"
        session = built_session()
        session.run_rounds(1)
        save_session(session, path)
        other = DissentSession.build(num_servers=3, num_clients=3, seed=7)
        other.setup()
        with pytest.raises(CheckpointError):
            restore_session(other, path)
