"""Verdict subsystem: verifiable rounds, in-round blame, hybrid mode."""

import dataclasses
import random
import sys
from functools import partial

import pytest

from repro.core import DissentSession
from repro.core.adversary import DisruptingVerdictClient, DisruptorClient
from repro.core.client import DissentClient
from repro.core.config import Policy
from repro.core.server import DissentServer
from repro.core.session import build_session
from repro.crypto import elgamal
from repro.crypto.groups import testing_group as make_test_group
from repro.crypto.keys import PrivateKey
from repro.errors import ConfigError, ProtocolError
from repro.persist import codec, read_checkpoint, write_checkpoint
from repro.verdict.ciphertext import (
    VerdictClientCiphertext,
    batch_verify_server_shares,
    chunk_count,
    combine_client_ciphertexts,
    decode_round,
    make_client_ciphertext,
    make_server_share,
    open_round,
    split_chunks,
    verify_client_ciphertext,
    verify_server_share,
)
from repro.verdict.hybrid import build_hybrid_with_disruptor
from repro.verdict.session import session_verifiers, slot_width


def _count(session, name):
    """A counter from the session's registry (0 if never bumped)."""
    return session.metrics()["counters"].get(name, 0)


def _verifiable(num_servers=3, num_clients=4, seed=42, slot_payload=48, disruptors=()):
    """A scheduled verifiable-mode DissentSession with telemetry on; the
    clients in ``disruptors`` are :class:`DisruptingVerdictClient`s."""

    def client_factory(definition, index, key, rng):
        cls = DisruptingVerdictClient if index in disruptors else DissentClient
        return cls(definition, index, key, rng)

    session = DissentSession.build(
        None,
        num_servers,
        num_clients,
        Policy(dcnet_mode="verifiable", initial_slot_payload=slot_payload),
        seed,
        client_factory=client_factory,
        telemetry=True,
    )
    session.setup()
    return session


def _submissions(session, round_number, slot_index):
    """Every client's verifiable contribution to one round, unrouted."""
    lead = session_verifiers(session)[0]
    return [
        client.verifiable_submission(
            round_number,
            slot_index,
            lead.slot_keys[slot_index],
            slot_width(session.definition),
            lead.session_id,
            lead.combined_key,
        )
        for client in session.clients
    ]


# ---------------------------------------------------------------------------
# Ciphertext layer
# ---------------------------------------------------------------------------


class TestVerdictCiphertext:
    def _setup(self, seed=1):
        group = make_test_group()
        rng = random.Random(seed)
        server_keys = [PrivateKey.generate(group, rng) for _ in range(3)]
        combined = elgamal.combined_key([k.public for k in server_keys])
        slot_private = PrivateKey.generate(group, rng)
        return group, rng, server_keys, combined, slot_private

    def test_owner_round_trip(self):
        group, rng, server_keys, combined, slot_private = self._setup()
        payload = b"verifiable hello"
        width = chunk_count(group, len(payload))
        owner = make_client_ciphertext(
            group, combined, slot_private.y, 0, b"sid", 7, 2, width,
            payload=payload, slot_private=slot_private, rng=rng,
        )
        covers = [
            make_client_ciphertext(
                group, combined, slot_private.y, i, b"sid", 7, 2, width, rng=rng
            )
            for i in (1, 2)
        ]
        for submission in (owner, *covers):
            assert verify_client_ciphertext(
                group, combined, slot_private.y, b"sid", 7, 2, width, submission
            )
        a_parts, b_parts = combine_client_ciphertexts(
            group, [owner, *covers], width
        )
        shares = [
            make_server_share(group, key, j, a_parts, b"sid", 7, 2)
            for j, key in enumerate(server_keys)
        ]
        for share in shares:
            assert verify_server_share(
                group, server_keys[share.server_index].public,
                a_parts, b"sid", 7, 2, share,
            )
        assert decode_round(group, open_round(group, b_parts, shares)) == payload

    def test_all_silent_round_decodes_empty(self):
        group, rng, server_keys, combined, slot_private = self._setup(2)
        width = 2
        covers = [
            make_client_ciphertext(
                group, combined, slot_private.y, i, b"sid", 0, 0, width, rng=rng
            )
            for i in range(3)
        ]
        a_parts, b_parts = combine_client_ciphertexts(group, covers, width)
        shares = [
            make_server_share(group, key, j, a_parts, b"sid", 0, 0)
            for j, key in enumerate(server_keys)
        ]
        assert decode_round(group, open_round(group, b_parts, shares)) == b""

    def test_garbled_ciphertext_fails_verification(self):
        group, rng, server_keys, combined, slot_private = self._setup(3)
        honest = make_client_ciphertext(
            group, combined, slot_private.y, 1, b"sid", 4, 0, 1, rng=rng
        )
        noise = group.random_element(rng)
        garbled = VerdictClientCiphertext(
            1,
            (elgamal.Ciphertext(
                honest.ciphertexts[0].a,
                group.mul(honest.ciphertexts[0].b, noise),
            ),),
            honest.proofs,
        )
        assert not verify_client_ciphertext(
            group, combined, slot_private.y, b"sid", 4, 0, 1, garbled
        )

    def test_proof_bound_to_position_and_sender(self):
        group, rng, server_keys, combined, slot_private = self._setup(4)
        honest = make_client_ciphertext(
            group, combined, slot_private.y, 1, b"sid", 4, 0, 1, rng=rng
        )
        # Same transcript replayed under another client index fails.
        stolen = VerdictClientCiphertext(2, honest.ciphertexts, honest.proofs)
        assert not verify_client_ciphertext(
            group, combined, slot_private.y, b"sid", 4, 0, 1, stolen
        )
        # ... or another round.
        assert not verify_client_ciphertext(
            group, combined, slot_private.y, b"sid", 5, 0, 1, honest
        )

    def test_non_owner_cannot_carry_a_message(self):
        group, rng, server_keys, combined, slot_private = self._setup(5)
        with pytest.raises(ProtocolError):
            make_client_ciphertext(
                group, combined, slot_private.y, 0, b"sid", 1, 0, 1,
                payload=b"hi", slot_private=None, rng=rng,
            )

    def test_bad_server_share_rejected(self):
        group, rng, server_keys, combined, slot_private = self._setup(6)
        sub = make_client_ciphertext(
            group, combined, slot_private.y, 0, b"sid", 2, 1, 1, rng=rng
        )
        a_parts, _ = combine_client_ciphertexts(group, [sub], 1)
        share = make_server_share(group, server_keys[0], 0, a_parts, b"sid", 2, 1)
        lying = type(share)(0, tuple(group.mul(s, group.g) for s in share.shares), share.proofs)
        assert not verify_server_share(
            group, server_keys[0].public, a_parts, b"sid", 2, 1, lying
        )

    def test_chunking_round_trip(self):
        group = make_test_group()
        payload = bytes(range(50))
        width = chunk_count(group, len(payload))
        assert b"".join(split_chunks(group, payload, width)) == payload


# ---------------------------------------------------------------------------
# Verifiable mode: a DissentSession policy, acceptance (a) and (b)
# ---------------------------------------------------------------------------


class TestVerdictSession:
    """Verdict's session: a DissentSession whose policy is verifiable."""

    def test_well_formed_round_decodes(self):
        session = _verifiable(num_servers=3, num_clients=4, seed=42, slot_payload=48)
        session.post(1, b"hello verifiable world")
        session.run_until_quiet()
        delivered = {m for _, _, m in session.delivered_messages(0)}
        assert b"hello verifiable world" in delivered
        # Every client observed the same payloads.
        for i in range(1, 4):
            assert {m for _, _, m in session.delivered_messages(i)} == delivered

    def test_slots_come_from_the_key_shuffle(self):
        """Slot s belongs to ``slot_elements[s]``, the pseudonym key the
        coordinator's key shuffle placed there: the servers check each
        round's proofs under it and its owner proves with that pseudonym."""
        session = _verifiable(num_servers=2, num_clients=4, seed=5, slot_payload=24)
        elements = session.slot_elements
        assert len(set(elements)) == 4
        for verifier in session_verifiers(session):
            assert verifier.slot_keys == elements
        for client in session.clients:
            assert client.slot_keys == elements
            assert elements[client.slot] == client.pseudonym.y
        # Round r serves slot r mod N, so the owner of slot 2 speaks in round 2.
        owner = next(c.index for c in session.clients if c.slot == 2)
        session.post(owner, b"by the shuffle's slot")
        session.run_rounds(3)
        assert session.delivered == [(2, 2, b"by the shuffle's slot")]

    def test_malformed_ciphertext_rejected_and_sender_named(self):
        session = _verifiable(
            num_servers=3, num_clients=4, seed=42, slot_payload=48, disruptors={2}
        )
        session.post(1, b"important message")
        record = session.run_round()
        # Named in the very round it misbehaved — no accusation machinery.
        assert session.expelled == {2}
        # The round itself still completed for everyone else, and traffic
        # flows once the disruptor is out.
        assert record.completed and not session.convicted_servers
        session.run_until_quiet()
        assert any(
            m == b"important message" for _, _, m in session.delivered_messages(0)
        )
        assert session.metrics()["counters"]["verdict.rejected_submissions"] >= 1

    def test_oversized_message_rejected_at_post(self):
        session = _verifiable(num_servers=2, num_clients=3, seed=1, slot_payload=24)
        group = session.definition.group
        capacity = slot_width(session.definition) * group.message_bytes
        too_big = b"x" * (capacity + 1)
        with pytest.raises(ProtocolError):
            session.post(0, too_big)
        # Capacity-sized traffic still flows.
        session.post(0, b"y" * capacity)
        session.run_until_quiet()
        assert any(
            m == b"y" * capacity for _, _, m in session.delivered_messages(1)
        )

    def test_unknown_group_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown group"):
            DissentSession.build("nope", policy=Policy(dcnet_mode="verifiable"))

    def test_honest_servers_agree_on_rejection(self):
        session = _verifiable(
            num_servers=2, num_clients=3, seed=9, slot_payload=24, disruptors={0}
        )
        session.run_round()
        # Each of the two servers rejected the one forged submission.
        assert session.metrics()["counters"]["verdict.rejected_submissions"] == 2
        assert session.expelled == {0}

    def test_every_window_gives_lockstep_records(self):
        """A verifiable round is filed before the next one is built, so W = 4
        gives W = 1's records, expulsions and deliveries."""

        def run(window):
            session = _verifiable(
                num_servers=2, num_clients=4, seed=17, slot_payload=24, disruptors={3}
            )
            for i in range(3):
                session.post(i, b"window %d" % i)
            session.run_rounds(6, window=window)
            return session.records, session.expelled, session.delivered_messages(0)

        lockstep = run(1)
        assert lockstep[1] == {3}
        assert len(lockstep[2]) == 3
        assert run(4) == lockstep


# ---------------------------------------------------------------------------
# Hybrid mode: acceptance (c)
# ---------------------------------------------------------------------------


def _plain_hybrid_disruptor(seed, disruptor_index, victim_index, flips_per_round):
    """A hybrid group built by hand: a plain DissentSession with a plain
    DisruptorClient, and nothing but the policy naming the mode."""

    def client_factory(definition, index, key, rng):
        cls = DisruptorClient if index == disruptor_index else DissentClient
        return cls(definition, index, key, rng)

    session = DissentSession.build(
        "test-256",
        3,
        6,
        Policy(dcnet_mode="hybrid"),
        seed,
        client_factory=client_factory,
    )
    session.setup()
    disruptor = session.clients[disruptor_index]
    disruptor.target_slot = session.clients[victim_index].slot
    disruptor.flips_per_round = flips_per_round
    return session, disruptor.target_slot


class TestHybridMode:
    def test_clean_rounds_match_xor_fast_path_bit_for_bit(self):
        xor = DissentSession.build(num_servers=3, num_clients=6, seed=5)
        hybrid = DissentSession.build(
            num_servers=3, num_clients=6, seed=5, policy=Policy(dcnet_mode="hybrid")
        )
        xor.setup()
        hybrid.setup()
        xor.post(2, b"clean round message")
        hybrid.post(2, b"clean round message")
        for _ in range(4):
            a = xor.run_round()
            b = hybrid.run_round()
            # Identical bytes on the wire (signature nonces draw from the
            # system CSPRNG, so only the signed content is comparable).
            assert a.output.cleartext == b.output.cleartext
            assert a.participation == b.participation
        assert not hybrid.blames

    @pytest.mark.parametrize(
        "build",
        (
            build_hybrid_with_disruptor,
            partial(build_hybrid_with_disruptor, group="ec25519"),
            _plain_hybrid_disruptor,
        ),
        ids=("helper", "helper-ec25519", "plain-classes"),
    )
    def test_disruptor_named_without_accusation_shuffle(self, build):
        session, _ = build(
            seed=33, disruptor_index=4, victim_index=1, flips_per_round=3
        )
        session.enable_telemetry()
        session.post(1, b"the disruptor will jam this")
        for _ in range(12):
            session.run_round()
            if session.blames and session.blames[-1].status == "blamed":
                break
        blame = session.blames[-1]
        assert blame.client_culprits == (4,)
        assert session.expelled == {4}  # the disruptor, and no honest client
        # The whole point: zero accusation shuffles ran.
        assert _count(session, "session.accusation_phases") == 0
        # The replay reconstructed the victim's true slot bytes: the
        # witness bit really was flipped 0 -> 1 in the archived output.
        archive = session.servers[0].archive[blame.round_number]
        start, _ = archive.layout.slot_byte_range(blame.slot_index)
        from repro.util.bytesops import get_bit

        offset = blame.witness_bit - 8 * start
        assert get_bit(blame.true_slot_bytes, offset) == 0
        assert get_bit(archive.cleartext, blame.witness_bit) == 1
        # Traffic completes once the disruptor is expelled.
        session.run_until_quiet()
        assert any(
            m == b"the disruptor will jam this"
            for _, _, m in session.delivered_messages(0)
        )

    def test_replay_preserves_owner_anonymity_shape(self):
        """Replay submissions are proof-carrying for every client alike."""
        session, victim_slot = build_hybrid_with_disruptor(
            seed=33, flips_per_round=3
        )
        session.post(1, b"jam target")
        for _ in range(12):
            session.run_round()
            if session.blames and session.blames[-1].status == "blamed":
                break
        blame = session.blames[-1]
        # All remaining final-list members replayed and all proofs verified
        # (the disruptor lies about content, not proofs).
        assert blame.rejected_replays == ()
        assert blame.verdicts and blame.verdicts[0].culprit_kind == "client"

    def test_hybrid_archives_stay_bounded(self):
        session = DissentSession.build(
            num_servers=2, num_clients=3, seed=12, policy=Policy(dcnet_mode="hybrid")
        )
        session.setup()
        keep = session.definition.policy.archive_rounds
        for _ in range(3 * keep):
            session.run_round()
        for client in session.clients:
            assert 0 < len(client.sent_history) <= keep

    @pytest.mark.parametrize("window", (None, 4), ids=("lockstep", "W4"))
    def test_xor_clients_keep_no_sent_history(self, window):
        """Only hybrid blame replays old rounds: an XOR client's sent
        history stays empty however long the session runs."""
        session = DissentSession.build(num_servers=2, num_clients=3, seed=12)
        session.setup()
        rounds = 3 * session.definition.policy.archive_rounds
        for n in range(rounds):
            session.post(n % 3, f"post {n}".encode())
        seen = []
        after_output = session.after_output

        def checked(record):
            after_output(record)
            seen.append([client.sent_history for client in session.clients])

        session.after_output = checked
        if window is None:
            session.run_rounds(rounds)
        else:
            session.run_rounds(rounds, window=window)
        assert seen == [[{}, {}, {}]] * rounds
        assert session.delivered_messages(0)

    def test_accusation_phase_is_refused(self):
        session = DissentSession.build(
            num_servers=2, num_clients=3, seed=3, policy=Policy(dcnet_mode="hybrid")
        )
        session.enable_telemetry()
        session.setup()
        with pytest.raises(ProtocolError):
            session.run_accusation_phase()
        assert _count(session, "session.accusation_phases") == 0

    def test_replay_reverifies_only_the_corrupted_chunk_span(self):
        """A corrupted round's replay opens slot chunks lazily, up to the
        witness chunk — not the whole slot."""
        from repro.core.config import Policy

        session, victim_slot = build_hybrid_with_disruptor(
            num_servers=3,
            num_clients=6,
            seed=34,
            policy=Policy(initial_slot_payload=96),
        )
        session.enable_telemetry()
        # Every client posts, so all six slots open and the corrupted slot
        # spans several ElGamal chunks.
        for i in range(6):
            session.post(i, bytes([i + 1]) * 90)
        for _ in range(4):
            session.run_round()
            if session.blames:
                break
        blame = session.blames[-1]
        assert blame.status == "blamed"
        assert [(v.culprit_kind, v.culprit_index) for v in blame.verdicts] == [
            ("client", 4)
        ]
        # Lazy replay: a multi-chunk slot, never opened past the witness
        # chunk; the verified prefix is exactly what the record carries.
        # (Seed-dependent but deterministic: the witness sits in chunk 2
        # of 5, so three chunks' proofs were never paid for.)
        assert blame.total_chunks > 1
        assert blame.chunks_replayed < blame.total_chunks
        group = session.definition.group
        archive = session.servers[0].archive[blame.round_number]
        start, end = archive.layout.slot_byte_range(blame.slot_index)
        assert len(blame.true_slot_bytes) == min(
            end - start, blame.chunks_replayed * group.message_bytes
        )

        # First blame of the session: nobody was expelled before the
        # replay ran, so every final-list member proved each opened chunk.
        participants = len(archive.final_list)
        assert _count(session, "hybrid.replay_proofs_checked") == (
            blame.chunks_replayed * participants
        )
        # Proof work tracked per chunk actually opened.
        assert _count(session, "hybrid.replay_chunks_opened") == blame.chunks_replayed

    def test_full_slot_replayed_when_corruption_is_in_last_chunk(self):
        """Worst case for the lazy walk: every chunk opens, same verdicts
        as the pre-Merkle whole-slot replay."""
        from repro.core.config import Policy
        from repro.verdict.hybrid import build_hybrid_with_disruptor

        session, victim_slot = build_hybrid_with_disruptor(
            num_servers=2,
            num_clients=4,
            disruptor_index=3,
            victim_index=1,
            seed=9,
            policy=Policy(initial_slot_payload=64),
        )
        session.post(1, b"y" * 60)
        for _ in range(6):
            session.run_round()
            if session.blames:
                break
        blame = session.blames[-1]
        assert blame.status == "blamed"
        assert 3 in blame.client_culprits
        assert 1 <= blame.chunks_replayed <= blame.total_chunks


class _WrongSecretServer(DissentServer):
    """Masks client 1's submissions with a pad the client never derives:
    it overwrites their shared secret once the schedule is known."""

    def learn_schedule(self, elements):
        super().learn_schedule(elements)
        self.secrets[1] = bytes(32)


class TestFaultyUpstreamServer:
    @pytest.mark.parametrize("mode", ("xor", "hybrid"))
    def test_the_server_is_convicted_and_no_client_expelled(self, mode):
        """A disruption convicts its author, never an honest member: server
        1 garbles every round through client 1, whose upstream it is."""

        def server_factory(definition, index, key, rng):
            cls = _WrongSecretServer if index == 1 else DissentServer
            return cls(definition, index, key, rng)

        session = DissentSession.build(
            num_servers=3,
            num_clients=6,
            seed=5,
            policy=Policy(dcnet_mode=mode),
            server_factory=server_factory,
        )
        session.setup()
        assert session.definition.upstream_server(1) == 1
        for i in range(6):
            session.post(i, f"hello {i}".encode())
        session.run_rounds(10)
        assert 1 in session.convicted_servers
        assert session.expelled == set()


# ---------------------------------------------------------------------------
# Policy integration
# ---------------------------------------------------------------------------


class TestModePolicy:
    def test_build_session_dispatches_on_mode(self):
        """XOR, hybrid and verifiable groups are one session class that
        reads the mode off the policy: each runs the blame path its mode
        names."""
        xor = build_session(num_clients=3, num_servers=2, seed=1)
        assert xor.definition.policy.dcnet_mode == "xor"
        hybrid = build_session(
            num_clients=3,
            num_servers=2,
            seed=1,
            policy=Policy(dcnet_mode="hybrid"),
        )
        assert hybrid.definition.policy.dcnet_mode == "hybrid"
        verifiable = build_session(
            num_clients=3,
            num_servers=2,
            seed=1,
            policy=Policy(dcnet_mode="verifiable", initial_slot_payload=24),
        )
        for session in (xor, hybrid, verifiable):
            assert type(session) is DissentSession
            session.setup()
        assert xor.run_accusation_phase() == []
        with pytest.raises(ProtocolError, match="verifiable replay"):
            hybrid.run_accusation_phase()
        with pytest.raises(ProtocolError, match="in-round proofs"):
            verifiable.run_accusation_phase()

    def test_invalid_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Policy(dcnet_mode="quantum")

    def test_mode_round_trips_through_policy_serialization(self):
        policy = Policy(dcnet_mode="hybrid")
        assert Policy.from_dict(policy.to_dict()) == policy
        # Old serialized policies without the field still parse.
        legacy = policy.to_dict()
        del legacy["dcnet_mode"]
        assert Policy.from_dict(legacy).dcnet_mode == "xor"

    def test_in_process_driver_runs_verifiable_mode(self):
        """A DissentSession runs a verifiable group — built by ``build`` or
        by the constructor — with proven rounds, not XOR under its name."""
        policy = Policy(dcnet_mode="verifiable", initial_slot_payload=24)
        built = DissentSession.build(None, 2, 3, policy, seed=1)
        parts = DissentSession.build(None, 2, 3, policy, seed=2)
        constructed = DissentSession(
            parts.definition, parts.servers, parts.clients, random.Random(2)
        )
        for session in (built, constructed):
            session.setup()
            session.enable_telemetry()
            session.post(0, b"proven")
            session.run_until_quiet()
            assert b"proven" in {m for _, _, m in session.delivered_messages(0)}
            assert _count(session, "verdict.client_proofs_checked") > 0
            # Every server signs each opened slot, and every client checked.
            assert all(len(record.output.signatures) == 2 for record in session.records)

    def test_verifiable_checkpoint_continues_bit_identically(self, tmp_path):
        """A verifiable session's records are signed outputs like any other,
        so its checkpoint restores and the rounds after it match."""
        from repro.persist import restore_session, save_session

        session = _verifiable(num_servers=2, num_clients=3, seed=21, slot_payload=24)
        session.post(0, b"before")
        session.post(1, b"after")
        session.run_round()
        save_session(session, tmp_path / "verifiable.ckpt")
        fresh = DissentSession.build(
            None, 2, 3, session.definition.policy, 21, telemetry=True
        )
        restore_session(fresh, tmp_path / "verifiable.ckpt")
        assert fresh.snapshot_state() == session.snapshot_state()
        assert fresh.run_rounds(3) == session.run_rounds(3)
        assert fresh.delivered == session.delivered
        assert {m for _, _, m in fresh.delivered} == {b"before", b"after"}

    @pytest.mark.parametrize("mode", ["hybrid", "verifiable"])
    def test_wire_path_refuses_modes_it_does_not_run(self, mode, tmp_path):
        """The networked nodes run XOR rounds only, so a hybrid or
        verifiable group is refused at construction — ``build`` and
        ``restore`` alike — instead of running XOR under the other name."""
        from repro.errors import ConfigError
        from repro.net.runner import NetworkedSession

        with pytest.raises(ConfigError, match="xor"):
            NetworkedSession.build(
                num_servers=2, num_clients=3, seed=1, policy=Policy(dcnet_mode=mode)
            )
        with NetworkedSession.build(num_servers=2, num_clients=3, seed=1) as session:
            session.checkpoint(tmp_path / "xor.ckpt")
        state = codec.decode_net_session(
            read_checkpoint(tmp_path / "xor.ckpt", kind="net-session")
        )
        state.definition = dataclasses.replace(
            state.definition,
            policy=dataclasses.replace(state.definition.policy, dcnet_mode=mode),
        )
        write_checkpoint(
            tmp_path / "other.ckpt", codec.encode_net_session(state), kind="net-session"
        )
        with pytest.raises(ConfigError, match="xor"):
            NetworkedSession.restore(tmp_path / "other.ckpt")


# ---------------------------------------------------------------------------
# Batched verification and share cross-checking
# ---------------------------------------------------------------------------


class TestBatchedVerdictPaths:
    def test_mixed_batch_matches_per_proof_culprits(self):
        """Batched rejection equals per-proof rejection, disruptors and all."""
        from repro.verdict.ciphertext import batch_verify_client_ciphertexts

        session = _verifiable(
            num_servers=2, num_clients=5, seed=6, slot_payload=48, disruptors={1, 3}
        )
        slot_index = 0
        width = slot_width(session.definition)
        group = session.definition.group
        submissions = _submissions(session, 0, slot_index)
        server = session_verifiers(session)[0]
        per_proof = {
            s.client_index
            for s in submissions
            if not verify_client_ciphertext(
                group,
                server.combined_key,
                server.slot_keys[slot_index],
                server.session_id,
                0,
                slot_index,
                width,
                s,
            )
        }
        batched = batch_verify_client_ciphertexts(
            group,
            server.combined_key,
            server.slot_keys[slot_index],
            server.session_id,
            0,
            slot_index,
            width,
            submissions,
        )
        assert per_proof == {1, 3}
        assert batched == per_proof

    def test_width_mismatch_rejected_in_batch(self):
        session = _verifiable(num_servers=2, num_clients=3, seed=2, slot_payload=48)
        width = slot_width(session.definition)
        submissions = _submissions(session, 0, 0)
        truncated = VerdictClientCiphertext(
            submissions[1].client_index,
            submissions[1].ciphertexts[:-1],
            submissions[1].proofs[:-1],
        )
        submissions[1] = truncated
        server = session_verifiers(session)[0]
        rejected = server.verify_submissions(0, 0, width, submissions)
        assert rejected == {1}

    def test_bad_share_named_by_every_honest_server(self):
        """A lying server is blamed by all verifiers, not a designated one."""
        from repro.verdict.ciphertext import VerdictServerShare

        session = _verifiable(num_servers=3, num_clients=4, seed=5, slot_payload=24)
        liar = session_verifiers(session)[1]
        honest_make = liar.make_share

        def lying_make(*args):
            share = honest_make(*args)
            garbled = tuple(
                liar.group.mul(s, liar.group.g) for s in share.shares
            )
            return VerdictServerShare(liar.index, garbled, share.proofs)

        liar.make_share = lying_make
        session.post(0, b"x")
        record = session.run_round()
        assert session.convicted_servers == {1}
        assert not record.completed
        # Every server independently reached the same verdict (the round
        # cross-checks agreement; disagreement raises ProtocolError) and
        # did the share-checking work: three servers, three shares each.
        width = slot_width(session.definition)
        assert _count(session, "verdict.share_proofs_checked") == 3 * 3 * width

    def test_share_vote_agreement_is_per_server(self):
        """Each server's verify_shares names the same culprit directly."""
        from repro.verdict.ciphertext import VerdictServerShare

        session = _verifiable(num_servers=3, num_clients=3, seed=8, slot_payload=24)
        group = session.definition.group
        verifiers = session_verifiers(session)
        submissions = _submissions(session, 0, 0)
        a_parts, _ = combine_client_ciphertexts(
            group, submissions, slot_width(session.definition)
        )
        shares = [s.make_share(0, 0, a_parts) for s in verifiers]
        garbled = tuple(group.mul(x, group.g) for x in shares[2].shares)
        shares[2] = VerdictServerShare(2, garbled, shares[2].proofs)
        votes = [server.verify_shares(0, 0, a_parts, shares) for server in verifiers]
        assert votes == [(2,), (2,), (2,)]


class TestOneVerifiableRound:
    def test_every_server_checks_every_replayed_chunk(self, monkeypatch):
        """The hybrid replay opens each chunk through the same verifiable
        round as verifiable mode: all M servers check the chunk's shares,
        each bound to the chunk's absolute position."""
        real = batch_verify_server_shares
        calls = []

        def counting(*args, chunk_start=0, **kwargs):
            calls.append(chunk_start)
            return real(*args, chunk_start=chunk_start, **kwargs)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and (
                getattr(module, "batch_verify_server_shares", None) is real
            ):
                monkeypatch.setattr(module, "batch_verify_server_shares", counting)

        session, _ = build_hybrid_with_disruptor(
            num_servers=3,
            num_clients=6,
            seed=34,
            policy=Policy(initial_slot_payload=96),
        )
        for i in range(6):
            session.post(i, bytes([i + 1]) * 90)
        for _ in range(4):
            session.run_round()
            if session.blames:
                break
        (blame,) = session.blames
        assert blame.status == "blamed"
        assert blame.chunks_replayed > 1
        assert calls == [k for k in range(blame.chunks_replayed) for _ in range(3)]


class TestVerdictCounters:
    def test_client_proofs_made_wired_and_summed(self):
        session = _verifiable(num_servers=2, num_clients=3, seed=4, slot_payload=24)
        width = slot_width(session.definition)
        session.post(0, b"count me")
        session.run_round()
        total = session.metrics()["counters"]
        assert total["verdict.client_proofs_made"] == 3 * width
        # Both servers checked every made proof.
        assert total["verdict.client_proofs_checked"] == 2 * 3 * width
        session.run_round()
        total = session.metrics()["counters"]
        assert total["verdict.client_proofs_made"] == 6 * width


class TestRunUntilQuietOutcome:
    def test_drained_on_final_round_distinguished(self):
        session = _verifiable(num_servers=2, num_clients=3, seed=11, slot_payload=24)
        sender = 0
        slot = session.clients[sender].slot
        session.post(sender, b"tight budget")
        # The sender's slot is served in round `slot`; draining takes
        # exactly slot + 1 rounds — grant precisely that many.
        outcome = session.run_until_quiet(max_rounds=slot + 1)
        assert outcome.drained
        assert outcome.rounds_used == slot + 1
        assert bool(outcome)

    def test_undrained_budget_reported(self):
        session = _verifiable(num_servers=2, num_clients=3, seed=11, slot_payload=24)
        session.post(0, b"never sent")
        outcome = session.run_until_quiet(max_rounds=0)
        assert not outcome.drained
        assert outcome.rounds_used == 0
        assert not bool(outcome)

    def test_xor_session_reports_drained(self):
        session = DissentSession.build(num_servers=2, num_clients=4, seed=3)
        session.setup()
        session.post(1, b"hello")
        outcome = session.run_until_quiet()
        assert outcome.drained
        assert outcome.rounds_used > 0
        undrained = DissentSession.build(num_servers=2, num_clients=4, seed=3)
        undrained.setup()
        undrained.post(1, b"stuck")
        assert not undrained.run_until_quiet(max_rounds=0).drained


# ---------------------------------------------------------------------------
# Hybrid mode everywhere: apps and churn scenarios, unchanged
# ---------------------------------------------------------------------------


class TestHybridEverywhere:
    def test_microblog_feed_runs_unchanged_over_hybrid(self):
        from repro.apps import MicroblogFeed

        session = build_session(
            num_servers=3,
            num_clients=8,
            seed=7,
            policy=Policy(alpha=0.5, dcnet_mode="hybrid"),
        )
        assert session.definition.policy.dcnet_mode == "hybrid"
        session.enable_telemetry()
        session.setup()
        feed = MicroblogFeed(session)
        churn_rng = random.Random(42)
        for author, text in ((1, "hybrid post one"), (4, "hybrid post two")):
            feed.post(author, text)
            for _ in range(3):
                online = {
                    i for i in range(8) if churn_rng.random() < 0.8
                } | {author}
                feed.run_round(online)
        texts = [post.text for post in feed.timeline()]
        assert "hybrid post one" in texts
        assert "hybrid post two" in texts
        assert _count(session, "session.accusation_phases") == 0

    def test_filesharing_runs_unchanged_over_hybrid(self):
        from repro.apps.filesharing import FileSharingApp, file_digest

        session = build_session(
            num_servers=2,
            num_clients=4,
            seed=9,
            policy=Policy(dcnet_mode="hybrid"),
        )
        assert session.definition.policy.dcnet_mode == "hybrid"
        session.enable_telemetry()
        session.setup()
        app = FileSharingApp(session, chunk_payload=200)
        data = bytes(range(256)) * 3
        file_id = app.share(1, data)
        result = app.run_until_complete(file_id, max_rounds=48)
        assert result == data
        assert file_digest(result) == file_digest(data)
        assert _count(session, "hybrid.fast_rounds") > 0

    def test_hybrid_session_in_churn_scenario(self):
        from repro.sim.churn import SessionChurnModel, drive_session_under_churn

        session, _ = build_hybrid_with_disruptor(
            seed=33, flips_per_round=3, policy=Policy(alpha=0.2)
        )
        session.enable_telemetry()
        session.post(1, b"churned target")
        model = SessionChurnModel(
            mean_session_rounds=8.0, mean_offline_rounds=3.0
        )
        participations = drive_session_under_churn(
            session, model, rounds=16, rng=random.Random(5)
        )
        assert len(participations) == 16
        assert session.round_number == 16
        # The hybrid invariant holds under churn too: disruption (if any
        # surfaced) is handled by replay, never by an accusation shuffle.
        assert _count(session, "session.accusation_phases") == 0
        for blame in session.blames:
            if blame.status == "blamed":
                assert blame.client_culprits == (4,)
