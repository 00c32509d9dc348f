"""Round-trip property tests for the canonical wire format.

Every envelope body type must encode/decode canonically —
``decode(encode(x)) == x`` field for field — and signatures must stay
valid across the wire boundary: the decoded envelope re-derives the exact
signed payload bytes the sender's node produced.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accusation import Rebuttal, make_rebuttal
from repro.core.keyshuffle import make_session_key, shuffle_run_id
from repro.core.rounds import RoundOutput
from repro.core.session import build_keys
from repro.errors import WireDecodeError
from repro.net import wire
from repro.util.serialization import pack_fields, unpack_fields
from repro.net.message import (
    ACCUSATION_REVEAL,
    CLIENT_CIPHERTEXT,
    ROUND_OUTPUT,
    SERVER_COMMIT,
    SERVER_INVENTORY,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    SHUFFLE_SUBMISSION,
)


@pytest.fixture(scope="module")
def round_artifacts():
    """One real protocol round, every envelope type captured off the wire.

    Built once per module: a 2-server/3-client group runs its key shuffle
    and one full round with real crypto, keeping each phase's envelopes.
    """
    from repro.core.client import DissentClient
    from repro.core.server import DissentServer
    from repro.core.keyshuffle import (
        open_shuffle_submissions,
        run_key_shuffle,
        verify_session_keys,
    )

    rng = random.Random(0x31BE)
    built = build_keys("test-256", 2, 3, None, rng)
    servers = [
        DissentServer(built.definition, j, key, random.Random(rng.getrandbits(64)))
        for j, key in enumerate(built.server_keys)
    ]
    clients = [
        DissentClient(built.definition, i, key, random.Random(rng.getrandbits(64)))
        for i, key in enumerate(built.client_keys)
    ]
    purpose = b"dissent.key-shuffle|" + built.definition.group_id()
    privates, session_keys = [], []
    for j, server in enumerate(servers):
        private, session_key = make_session_key(server.key, j, purpose, rng)
        privates.append(private)
        session_keys.append(session_key)
    publics = verify_session_keys(built.definition, session_keys, purpose)
    shuffle_envelopes = [
        client.signed_scheduling_submission(publics, purpose) for client in clients
    ]
    submissions = open_shuffle_submissions(
        built.definition, shuffle_envelopes, shuffle_run_id(purpose, publics)
    )
    result = run_key_shuffle(
        built.definition, privates, submissions, context=purpose, rng=rng
    )
    elements = list(result.slot_elements)
    for node in (*clients, *servers):
        node.learn_schedule(elements)

    clients[1].queue_message(b"wire round-trip payload")
    states = [server.open_round(0) for server in servers]
    pairs = list(zip(servers, states))
    ciphertexts = [client.produce_ciphertext(0) for client in clients]
    batches = [[], []]
    for i, envelope in enumerate(ciphertexts):
        batches[built.definition.upstream_server(i)].append(envelope)
    for (server, state), batch in zip(pairs, batches):
        if batch:
            server.accept_ciphertexts(state, batch)
    inventories = [server.make_inventory(state) for server, state in pairs]
    for server, state in pairs:
        server.receive_inventories(state, inventories)
    commits = [server.compute_ciphertext(state) for server, state in pairs]
    for server, state in pairs:
        server.receive_commitments(state, commits)
    reveals = [server.reveal_ciphertext(state) for server, state in pairs]
    for server, state in pairs:
        server.receive_reveals(state, reveals)
    signature_envelopes = [server.signature_envelope(state) for server, state in pairs]
    outputs = [
        server.receive_signature_envelopes(state, signature_envelopes)
        for server, state in pairs
    ]
    for server, state in pairs:
        server.finish_round(state, outputs[0])
    output_envelope = servers[0].output_envelope(outputs[0])
    reveal_envelopes = [server.disclosure_envelope(0, 7) for server in servers]
    return {
        "definition": built.definition,
        "group": built.definition.group,
        "servers": servers,
        "clients": clients,
        "client_keys": built.definition.client_keys,
        "server_keys": built.definition.server_keys,
        "envelopes": {
            CLIENT_CIPHERTEXT: (ciphertexts[0], built.definition.client_keys[0]),
            SERVER_INVENTORY: (inventories[1], built.definition.server_keys[1]),
            SERVER_COMMIT: (commits[0], built.definition.server_keys[0]),
            SERVER_REVEAL: (reveals[1], built.definition.server_keys[1]),
            SERVER_SIGNATURE: (
                signature_envelopes[0],
                built.definition.server_keys[0],
            ),
            ROUND_OUTPUT: (output_envelope, built.definition.server_keys[0]),
            SHUFFLE_SUBMISSION: (
                shuffle_envelopes[2],
                built.definition.client_keys[2],
            ),
            ACCUSATION_REVEAL: (
                reveal_envelopes[1],
                built.definition.server_keys[1],
            ),
        },
        "output": outputs[0],
    }


ALL_TYPES = [
    CLIENT_CIPHERTEXT,
    SERVER_INVENTORY,
    SERVER_COMMIT,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    ROUND_OUTPUT,
    SHUFFLE_SUBMISSION,
    ACCUSATION_REVEAL,
]


class TestEnvelopeRoundTrip:
    @pytest.mark.parametrize("msg_type", ALL_TYPES)
    def test_every_type_roundtrips_canonically(self, round_artifacts, msg_type):
        group = round_artifacts["group"]
        envelope, _ = round_artifacts["envelopes"][msg_type]
        encoded = wire.encode_envelope(group, envelope)
        decoded = wire.decode_envelope(group, encoded)
        assert decoded == envelope
        # Canonical: re-encoding the decoded envelope is byte-identical.
        assert wire.encode_envelope(group, decoded) == encoded

    @pytest.mark.parametrize("msg_type", ALL_TYPES)
    def test_signature_survives_the_wire(self, round_artifacts, msg_type):
        group = round_artifacts["group"]
        envelope, sender_key = round_artifacts["envelopes"][msg_type]
        decoded = wire.decode_envelope(group, wire.encode_envelope(group, envelope))
        decoded.verify(sender_key)  # raises on any re-serialization drift

    def test_tampered_body_fails_after_roundtrip(self, round_artifacts):
        import dataclasses

        from repro.errors import InvalidSignature

        group = round_artifacts["group"]
        envelope, sender_key = round_artifacts["envelopes"][CLIENT_CIPHERTEXT]
        tampered = dataclasses.replace(
            envelope, body=bytes([envelope.body[0] ^ 1]) + envelope.body[1:]
        )
        decoded = wire.decode_envelope(group, wire.encode_envelope(group, tampered))
        with pytest.raises(InvalidSignature):
            decoded.verify(sender_key)


class TestBodyCodecs:
    def test_inventory_body_matches_signed_format(self, round_artifacts):
        envelope, _ = round_artifacts["envelopes"][SERVER_INVENTORY]
        indices = wire.decode_inventory_body(envelope.body)
        # The codec reproduces the exact bytes the server signed.
        assert wire.encode_inventory_body(indices) == envelope.body

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
    def test_inventory_roundtrip(self, indices):
        assert list(
            wire.decode_inventory_body(wire.encode_inventory_body(indices))
        ) == list(indices)

    def test_signature_body_roundtrip(self, round_artifacts):
        group = round_artifacts["group"]
        envelope, _ = round_artifacts["envelopes"][SERVER_SIGNATURE]
        signature = wire.decode_signature_body(group, envelope.body)
        assert wire.encode_signature_body(group, signature) == envelope.body

    def test_round_output_roundtrip(self, round_artifacts):
        group = round_artifacts["group"]
        output = round_artifacts["output"]
        decoded = wire.decode_round_output_body(
            group, wire.encode_round_output_body(group, output)
        )
        assert decoded == output
        assert isinstance(decoded, RoundOutput)

    def test_round_done_roundtrip_and_strictness(self):
        """``round-done`` is five typed fields, always: the three-field
        frame of the pre-engine servers (no certificate) and every other
        misshapen body is a typed error, never a tolerated default."""
        from repro.core import DissentSession
        from repro.core.engine import RoundDone
        from repro.util.serialization import pack_fields, unpack_fields

        reports = {}

        class Capturing(DissentSession):
            def certified_round(self, r, dones):
                reports.update(dones)
                return super().certified_round(r, dones)

        session = Capturing.build("test-256", 2, 3, seed=5)
        session.setup()
        session.run_round()
        group, done = session.definition.group, reports[1]
        body = wire.encode_round_done_body(group, done)
        assert RoundDone(*wire.decode_round_done_body(group, body)) == done
        assert done.proof is None and done.certificate is not None

        fields = unpack_fields(body)
        assert len(fields) == 5
        hostile = {
            "three-field legacy frame": fields[:3],
            "four fields": fields[:4],
            "six fields": [*fields, b""],
            "round as bytes": [b"0", *fields[1:]],
            "flag as bytes": [fields[0], b"\x01", *fields[2:]],
            "output as int": [*fields[:2], 7, *fields[3:]],
            "certificate as int": [*fields[:3], 7, fields[4]],
            "proof as int": [*fields[:4], 0],
            "empty certificate": [*fields[:3], b"", fields[4]],
            "garbage certificate": [*fields[:3], b"\x00garbage", fields[4]],
            "garbage proof": [*fields[:4], b"\x00garbage"],
            "truncated output": [*fields[:2], fields[2][:-5], *fields[3:]],
        }
        for label, bad in hostile.items():
            with pytest.raises(WireDecodeError):
                wire.decode_round_done_body(group, pack_fields(*bad))
                pytest.fail(f"{label} was accepted")
        with pytest.raises(WireDecodeError):
            wire.decode_round_done_body(group, body[:-1])

    def test_shuffle_submission_roundtrip(self, round_artifacts):
        group = round_artifacts["group"]
        envelope, _ = round_artifacts["envelopes"][SHUFFLE_SUBMISSION]
        run_id, vector = wire.decode_shuffle_submission_body(group, envelope.body)
        assert (
            wire.encode_shuffle_submission_body(group, run_id, vector)
            == envelope.body
        )

    def test_disclosure_roundtrip(self, round_artifacts):
        group = round_artifacts["group"]
        envelope, _ = round_artifacts["envelopes"][ACCUSATION_REVEAL]
        bit_index, disclosure = wire.decode_accusation_reveal_body(
            group, envelope.body
        )
        assert bit_index == 7
        again = wire.encode_accusation_reveal_body(group, bit_index, disclosure)
        assert again == envelope.body
        # Deep equality: nested envelopes and pair bits survive.
        server = round_artifacts["servers"][1]
        original = server.trace_disclosure(0, 7)
        assert dict(disclosure.pair_bits) == dict(original.pair_bits)
        assert dict(disclosure.client_envelopes) == dict(original.client_envelopes)

    def test_evidence_roundtrip(self, round_artifacts):
        evidence = round_artifacts["servers"][0].archive[0].to_evidence()
        decoded = wire.decode_evidence(wire.encode_evidence(evidence))
        assert decoded.round_number == evidence.round_number
        assert decoded.final_list == tuple(evidence.final_list)
        assert dict(decoded.assignment) == dict(evidence.assignment)
        assert list(decoded.server_ciphertexts) == list(evidence.server_ciphertexts)
        assert decoded.cleartext == evidence.cleartext
        assert decoded.total_bytes == evidence.total_bytes
        assert dict(decoded.slot_bit_ranges) == dict(evidence.slot_bit_ranges)

    def test_rebuttal_roundtrip(self, round_artifacts):
        definition = round_artifacts["definition"]
        client = round_artifacts["clients"][0]
        rebuttal = make_rebuttal(client.key, definition.server_keys[1], 1)
        group = definition.group
        decoded = wire.decode_rebuttal(group, wire.encode_rebuttal(group, rebuttal))
        assert decoded == rebuttal
        assert isinstance(decoded, Rebuttal)

    def test_rebuttal_none_roundtrip(self, group):
        assert wire.encode_rebuttal(group, None) == b""
        assert wire.decode_rebuttal(group, b"") is None

    def test_rebuttal_element_errors_are_typed_and_bugs_propagate(
        self, round_artifacts, monkeypatch
    ):
        definition = round_artifacts["definition"]
        client = round_artifacts["clients"][0]
        group = definition.group
        encoded = wire.encode_rebuttal(
            group, make_rebuttal(client.key, definition.server_keys[1], 1)
        )
        fields = unpack_fields(encoded)
        for element in (b"\xff" * group.element_bytes, b"\x01"):
            fields[1] = element
            with pytest.raises(WireDecodeError, match="rebuttal DH element"):
                wire.decode_rebuttal(group, pack_fields(*fields))

        def bug(self, data):
            raise RuntimeError("a bug in the element decoder")

        monkeypatch.setattr(type(group), "element_from_bytes", bug)
        with pytest.raises(RuntimeError, match="a bug"):
            wire.decode_rebuttal(group, encoded)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=2**32),
            max_size=12,
        )
    )
    def test_int_pairs_roundtrip(self, pairs):
        assert wire.decode_int_pairs(wire.encode_int_pairs(pairs)) == pairs


class TestRoutedFrames:
    @given(
        st.text(max_size=24),
        st.text(max_size=24),
        st.text(min_size=1, max_size=24),
        st.integers(min_value=0, max_value=2**31),
        st.binary(max_size=512),
        st.integers(min_value=0, max_value=2**40),
    )
    def test_roundtrip(self, to, sender, kind, seq, body, ack):
        frame = wire.decode_routed(
            wire.encode_routed(to, sender, kind, seq, body, ack=ack)
        )
        assert (
            frame.to,
            frame.sender,
            frame.kind,
            frame.seq,
            frame.body,
            frame.ack,
        ) == (to, sender, kind, seq, body, ack)

    def test_garbage_is_typed_error(self):
        with pytest.raises(WireDecodeError):
            wire.decode_routed(b"\x00\x01garbage")
        with pytest.raises(WireDecodeError):
            wire.decode_routed(b"")

    def test_older_format_is_refused_by_its_magic(self):
        old = pack_fields("dissent.wire-routed.v1", "server-0", "client-0", "reply", 3, b"")
        with pytest.raises(WireDecodeError, match="magic unsupported"):
            wire.decode_routed(old)


class TestFraming:
    @given(st.lists(st.binary(max_size=300), max_size=16))
    def test_frames_roundtrip_through_decoder(self, payloads):
        stream = b"".join(wire.encode_frame(p) for p in payloads)
        assert list(wire.iter_frames(stream)) == payloads

    @given(st.lists(st.binary(max_size=300), min_size=1, max_size=8), st.data())
    def test_arbitrary_chunking_preserves_frames(self, payloads, data):
        stream = b"".join(wire.encode_frame(p) for p in payloads)
        decoder = wire.FrameDecoder()
        out = []
        offset = 0
        while offset < len(stream):
            step = data.draw(st.integers(min_value=1, max_value=64))
            out.extend(decoder.feed(stream[offset : offset + step]))
            offset += step
        decoder.finish()
        assert out == payloads
