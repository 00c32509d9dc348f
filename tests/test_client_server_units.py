"""Unit-level tests of client/server internals not covered by integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import fresh_session
from repro.core import Policy
from repro.core.client import (
    DissentClient,
    _SentRecord,
    frame_messages,
    unframe_messages,
)
from repro.core.server import Phase
from repro.crypto import prng
from repro.errors import CommitmentMismatch, ProtocolError
from repro.net.message import CLIENT_CIPHERTEXT, make_envelope
from repro.util.bytesops import get_bit, xor_many


class TestMessageFraming:
    def test_roundtrip(self):
        payload, leftovers = frame_messages([b"one", b"two"], 64)
        assert leftovers == []
        assert unframe_messages(payload.ljust(64, b"\x00")) == [b"one", b"two"]

    def test_overflow_spills_to_leftovers(self):
        payload, leftovers = frame_messages([b"aaaa", b"bbbb"], 7)
        assert unframe_messages(payload.ljust(7, b"\x00")) == [b"aaaa"]
        assert leftovers == [b"bbbb"]

    def test_fifo_order_preserved(self):
        messages = [b"1", b"22", b"333"]
        payload, leftovers = frame_messages(messages, 100)
        assert unframe_messages(payload.ljust(100, b"\x00")) == messages

    def test_oversized_head_blocks_queue(self):
        payload, leftovers = frame_messages([b"x" * 50, b"y"], 10)
        assert payload == b""
        assert leftovers == [b"x" * 50, b"y"]

    def test_truncated_frame_ignored(self):
        payload, _ = frame_messages([b"hello"], 16)
        assert unframe_messages(payload[:4]) == []

    def test_empty_payload(self):
        assert unframe_messages(bytes(32)) == []


class TestClientInternals:
    def test_cleartext_zero_when_silent(self):
        session = fresh_session(seed=71)
        client = session.clients[0]
        layout = client.scheduler.current_layout()
        assert client.build_cleartext(0) == bytes(layout.total_bytes)

    def test_request_bit_set_when_traffic_queued(self):
        session = fresh_session(seed=72)
        client = session.clients[1]
        client.queue_message(b"data")
        cleartext = client.build_cleartext(0)
        layout = client.scheduler.current_layout()
        assert get_bit(cleartext, layout.request_bit_index(client.slot)) == 1

    @pytest.mark.parametrize(
        "post, rounds_before, sends",
        [(False, 0, "nothing"), (True, 0, "request"), (True, 1, "slot")],
    )
    def test_ciphertext_masks_exactly_the_materialised_cleartext(
        self, post, rounds_before, sends
    ):
        # produce_ciphertext XORs only the placed pieces; build_cleartext
        # is their materialised view.  Same seed, same randomness drawn:
        # the vector a client masks is the cleartext, bit for bit.
        sparse, dense = (fresh_session(num_clients=4, seed=79) for _ in range(2))
        for session in (sparse, dense):
            if post:
                session.post(1, b"open my slot")
            for _ in range(rounds_before):
                session.run_round()
        r = sparse.round_number
        sent = sparse.clients[1].produce_ciphertext(r).body
        client = dense.clients[1]
        cleartext = client.build_cleartext(r)
        pads = [prng.pair_stream(s, r, len(cleartext)) for s in client.secrets]
        assert sent == xor_many([cleartext, *pads])
        assert sparse.clients[1].rng.getstate() == client.rng.getstate()
        assert sparse.clients[1]._sent == client._sent
        assert any(cleartext) == (sends != "nothing")
        assert (r in client._sent) == (sends == "slot")

    def test_request_bit_randomized_on_retry(self):
        session = fresh_session(seed=73)
        client = session.clients[2]
        client.queue_message(b"data")
        first = client._request_bit_value()
        assert first == 1  # deterministic first attempt (§3.8)
        retries = {client._request_bit_value() for _ in range(32)}
        assert retries == {0, 1}  # randomized afterwards

    def test_queue_empty_message_rejected(self):
        session = fresh_session(seed=74)
        with pytest.raises(ProtocolError):
            session.clients[0].queue_message(b"")

    def test_queue_rejects_message_no_slot_can_request(self):
        # The slot header's 2-byte length field cannot request more than
        # 65,535 bytes of capacity; a 70,000-byte message used to be
        # admitted (the policy cap is 1 MiB), complete round 0, then fail
        # run_round forever with "requested length 70002 unencodable".
        session = fresh_session(num_clients=4, seed=76)
        with pytest.raises(ProtocolError, match="65533"):
            session.clients[0].queue_message(b"m" * 70_000)
        assert not session.clients[0].has_pending_traffic
        for _ in range(3):
            session.run_round()

    def test_largest_admitted_message_is_delivered(self):
        session = fresh_session(num_clients=4, seed=77)
        message = bytes(range(256)) * 255 + b"x" * 253
        assert len(message) == 65_533
        session.post(0, message)
        with pytest.raises(ProtocolError):
            session.clients[0].queue_message(message + b"y")
        session.run_until_quiet()
        assert [m for _, _, m in session.delivered_messages(1)] == [message]
        session.run_round()

    def test_queue_limit_follows_a_smaller_policy_cap(self):
        policy = Policy(max_slot_payload=4096)
        session = fresh_session(num_clients=4, seed=78, policy=policy)
        session.clients[0].queue_message(b"m" * 4094)
        with pytest.raises(ProtocolError, match="4094"):
            session.clients[0].queue_message(b"m" * 4095)

    def test_output_signature_checked(self):
        import dataclasses

        session = fresh_session(seed=75)
        record = session.run_round()
        bad = dataclasses.replace(record.output, participation=99)
        from repro.errors import InvalidSignature

        with pytest.raises(InvalidSignature):
            session.clients[0].verify_output(bad)

    def test_wrong_signature_count_rejected(self):
        import dataclasses

        session = fresh_session(seed=76)
        record = session.run_round()
        bad = dataclasses.replace(
            record.output, signatures=record.output.signatures[:-1]
        )
        from repro.errors import InvalidSignature

        with pytest.raises(InvalidSignature):
            session.clients[0].verify_output(bad)


def _witness_by_bit_loop(record, observed):
    """The §3.9 witness search one bit at a time: the reference."""
    if len(observed) != len(record.slot_bytes):
        return None
    for offset in range(8 * len(record.slot_bytes)):
        sent = get_bit(record.slot_bytes, offset)
        if sent == 0 and get_bit(observed, offset) == 1:
            return record.slot_bit_start + offset
    return None


class TestWitnessSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        sent=st.binary(max_size=40),
        start=st.integers(0, 1 << 20),
        data=st.data(),
    )
    def test_matches_the_bit_loop(self, sent, start, data):
        observed = data.draw(
            st.one_of(
                st.binary(min_size=len(sent), max_size=len(sent)),
                # Only 1s cleared: something changed, no witness exists.
                st.builds(
                    lambda mask: bytes(a & b for a, b in zip(sent, mask)),
                    st.binary(min_size=len(sent), max_size=len(sent)),
                ),
                # Only 0s raised: every difference is a witness.
                st.builds(
                    lambda mask: bytes(a | b for a, b in zip(sent, mask)),
                    st.binary(min_size=len(sent), max_size=len(sent)),
                ),
                st.binary(max_size=41),  # usually a length mismatch
            )
        )
        record = _SentRecord(sent, start, [])
        assert DissentClient._find_witness_bit(record, observed) == (
            _witness_by_bit_loop(record, observed)
        )

    def test_no_witness_and_length_mismatch(self):
        record = _SentRecord(b"\xff\x0f", 16, [])
        assert DissentClient._find_witness_bit(record, b"\x0f\x0f") is None
        assert DissentClient._find_witness_bit(record, b"\xff\x0f") is None
        assert DissentClient._find_witness_bit(record, b"\xff\x1f") == 16 + 11
        assert DissentClient._find_witness_bit(record, b"\xff\x1f\x00") is None
        assert DissentClient._find_witness_bit(record, b"\xff") is None


class TestServerInternals:
    def test_phase_machine_enforced(self):
        session = fresh_session(seed=77)
        server = session.servers[0]
        with pytest.raises(ProtocolError):
            server.make_inventory()  # no round open
        server.open_round(0)
        with pytest.raises(ProtocolError):
            server.reveal_ciphertext()  # must commit first

    def test_wrong_round_submission_rejected(self):
        session = fresh_session(seed=78)
        server = session.servers[0]
        server.open_round(0)
        envelope = session.clients[0].produce_ciphertext(5)  # wrong round
        assert not server.accept_ciphertext(envelope)
        server.abandon_round()

    def test_wrong_length_submission_rejected(self):
        session = fresh_session(seed=79)
        server = session.servers[0]
        server.open_round(0)
        client = session.clients[0]
        envelope = make_envelope(
            client.key, CLIENT_CIPHERTEXT, client.name, client.group_id, 0, b"short"
        )
        assert not server.accept_ciphertext(envelope)
        server.abandon_round()

    def test_unknown_sender_rejected(self):
        session = fresh_session(seed=80)
        server = session.servers[0]
        server.open_round(0)
        client = session.clients[0]
        layout = server.scheduler.current_layout()
        envelope = make_envelope(
            client.key, CLIENT_CIPHERTEXT, "client-99", client.group_id, 0,
            bytes(layout.total_bytes),
        )
        assert not server.accept_ciphertext(envelope)
        server.abandon_round()

    def test_expelled_client_rejected_at_accept(self):
        session = fresh_session(seed=81)
        server = session.servers[0]
        server.expel_client(2)
        server.open_round(0)
        envelope = session.clients[2].produce_ciphertext(0)
        assert not server.accept_ciphertext(envelope)
        server.abandon_round()

    def test_commitment_mismatch_detected(self):
        import dataclasses

        session = fresh_session(seed=82)
        for server in session.servers:
            server.open_round(0)
        for i in range(5):
            envelope = session.clients[i].produce_ciphertext(0)
            session.servers[i % 3].accept_ciphertext(envelope)
        inventories = [s.make_inventory() for s in session.servers]
        for s in session.servers:
            s.receive_inventories(inventories)
        commits = [s.compute_ciphertext() for s in session.servers]
        for s in session.servers:
            s.receive_commitments(commits)
        reveals = [s.reveal_ciphertext() for s in session.servers]
        # Tamper with server 1's reveal: commitment check must fire.
        tampered = make_envelope(
            session.servers[1].key,
            reveals[1].msg_type,
            reveals[1].sender,
            reveals[1].group_id,
            reveals[1].round_number,
            b"\x00" * len(reveals[1].body),
        )
        bad_set = [reveals[0], tampered, reveals[2]]
        with pytest.raises(CommitmentMismatch):
            session.servers[0].receive_reveals(bad_set)

    def test_archive_trimmed_to_policy(self):
        session = fresh_session(seed=83, policy=Policy(archive_rounds=2, alpha=0.0))
        for _ in range(5):
            session.run_round()
        for server in session.servers:
            assert len(server.archive) <= 2
            assert max(server.archive) == 4

    def test_dedup_assignment_lowest_server_wins(self):
        session = fresh_session(seed=84)
        for server in session.servers:
            server.open_round(0)
        # Client 0 submits to servers 0 AND 2.
        envelope = session.clients[0].produce_ciphertext(0)
        session.servers[0].accept_ciphertext(envelope)
        session.servers[2].accept_ciphertext(envelope)
        for i in range(1, 5):
            session.servers[i % 3].accept_ciphertext(
                session.clients[i].produce_ciphertext(0)
            )
        inventories = [s.make_inventory() for s in session.servers]
        for s in session.servers:
            count = s.receive_inventories(inventories)
        assert count == 5  # not double-counted
        assert session.servers[0].state.assignment[0] == 0  # lowest index kept
        # XOR correctness with the duplicate: round must still combine.
        commits = [s.compute_ciphertext() for s in session.servers]
        for s in session.servers:
            s.receive_commitments(commits)
        reveals = [s.reveal_ciphertext() for s in session.servers]
        cleartexts = {s.receive_reveals(reveals) for s in session.servers}
        assert len(cleartexts) == 1
        for s in session.servers:
            s.sign_output()
            s.abandon_round()


class TestKeyShuffleLayer:
    def test_session_key_verification(self):
        from repro.core.keyshuffle import make_session_key, verify_session_keys
        from repro.errors import ShuffleError

        session = fresh_session(seed=85)
        privates, session_keys = [], []
        for j, server in enumerate(session.servers):
            private, sk = make_session_key(server.key, j, b"purpose")
            privates.append(private)
            session_keys.append(sk)
        publics = verify_session_keys(session.definition, session_keys, b"purpose")
        assert [p.y for p in publics] == [k.y for k in privates]
        with pytest.raises(ShuffleError):
            verify_session_keys(session.definition, session_keys, b"other-purpose")

    def test_wrong_key_order_rejected(self):
        from repro.core.keyshuffle import make_session_key, verify_session_keys
        from repro.errors import ShuffleError

        session = fresh_session(seed=86)
        session_keys = []
        for j, server in enumerate(session.servers):
            _, sk = make_session_key(server.key, j, b"p")
            session_keys.append(sk)
        with pytest.raises(ShuffleError):
            verify_session_keys(
                session.definition, list(reversed(session_keys)), b"p"
            )
