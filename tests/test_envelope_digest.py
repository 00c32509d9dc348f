"""Envelope v2: the signature covers ``sha256(body)``, parsed in place.

Three things are pinned here, on both group backends where a signature is
involved:

* the **forgery matrix** for digest signing — nothing that was rejected
  when the signature covered the whole body is accepted now, scalar,
  batched or inside a certificate, and the per-object payload cache can
  never go stale;
* **version hygiene** — an older envelope or checkpoint is refused by its
  version tag, not by a signature failure three layers later;
* the **work gates** — deterministic counts (message bytes reaching
  Schnorr, SHA-256 passes over bodies, bytes allocated per codec call,
  pad squeezes and integer conversions per bulk byte) that guard the bulk
  path in tier-1 without a timer.
"""

import asyncio
import collections
import dataclasses
import hashlib
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import fresh_session
from repro.consensus.certificate import (
    RoundCertificate,
    find_invalid_votes,
    output_body_digest,
)
from repro.core.client import DissentClient
from repro.core.rounds import RoundRecord, RoundStatus
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.crypto import prng, schnorr
from repro.crypto.groups import group_by_name
from repro.crypto.keys import PrivateKey
from repro.errors import (
    CheckpointError,
    InvalidSignature,
    ProtocolError,
    WireDecodeError,
    WireError,
)
from repro.net import message, wire
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    SERVER_REVEAL,
    SERVER_VOTE,
    SignedEnvelope,
    batch_verify_envelopes,
    make_envelope,
)
from repro.net.node import COORDINATOR, K_HELLO, K_NODE_ERROR, ClientNode
from repro.net.runner import NetworkedSession, _Hub
from repro.net.transport import loopback_pair
from repro.persist import codec as persist_codec
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.util import bytesops
from repro.util.serialization import pack_fields, unpack_fields

BACKENDS = ("test-256", "ec25519")
_CACHE = "_body_digest"


@pytest.fixture(params=BACKENDS)
def backend(request):
    return group_by_name(request.param)


def _batch(group, count, body_bytes=40, seed=5):
    """``count`` well-signed envelopes under distinct keys."""
    rng = random.Random(seed)
    items = []
    for i in range(count):
        key = PrivateKey.generate(group, rng)
        envelope = make_envelope(
            key, CLIENT_CIPHERTEXT, f"client-{i}", b"gid", 4, rng.randbytes(body_bytes)
        )
        items.append((envelope, key.public))
    return items


def _flip(body: bytes, position: int) -> bytes:
    return body[:position] + bytes((body[position] ^ 1,)) + body[position + 1 :]


# ---------------------------------------------------------------------------
# Forgery matrix
# ---------------------------------------------------------------------------


class TestForgeryMatrix:
    def test_signature_covers_headers_and_body_digest_only(self, backend):
        (envelope, _), = _batch(backend, 1, body_bytes=100_000)
        assert envelope.signed_payload() == pack_fields(
            "dissent.envelope.v2",
            envelope.msg_type,
            envelope.sender,
            envelope.group_id,
            envelope.round_number,
            hashlib.sha256(envelope.body).digest(),
        )
        assert len(envelope.signed_payload()) <= 256

    @pytest.mark.parametrize("position", [0, 1234, -1])
    def test_altered_body_rejected_scalar(self, backend, position):
        (envelope, key), = _batch(backend, 1, body_bytes=5000)
        envelope.verify(key)
        forged = dataclasses.replace(envelope, body=_flip(envelope.body, position))
        with pytest.raises(InvalidSignature):
            forged.verify(key)

    def test_altered_bodies_named_exactly_in_a_mixed_batch(self, backend):
        items = _batch(backend, 11, body_bytes=3000)
        for i in (2, 7):
            envelope, key = items[i]
            items[i] = (dataclasses.replace(envelope, body=_flip(envelope.body, i)), key)
        assert batch_verify_envelopes(items) == (2, 7)
        sig_items = [(k, e.signed_payload(), e.signature) for e, k in items]
        assert schnorr.find_invalid(sig_items) == (2, 7)
        scalar = tuple(
            i for i, (k, m, s) in enumerate(sig_items) if not schnorr.verify(k, m, s)
        )
        assert scalar == (2, 7)

    def test_truncated_and_extended_bodies_rejected(self, backend):
        (envelope, key), = _batch(backend, 1, body_bytes=64)
        for body in (envelope.body[:-1], envelope.body + b"\x00", b""):
            with pytest.raises(InvalidSignature):
                dataclasses.replace(envelope, body=body).verify(key)

    def test_v1_signature_over_the_full_body_does_not_verify(self, backend):
        key = PrivateKey.generate(backend, random.Random(3))
        fields = (CLIENT_CIPHERTEXT, "client-0", b"gid", 4, b"a v1 body")
        v1 = SignedEnvelope(
            *fields,
            signature=schnorr.sign(key, pack_fields("dissent.envelope.v1", *fields)),
        )
        with pytest.raises(InvalidSignature):
            v1.verify(key.public)
        clean = _batch(backend, 3)
        assert batch_verify_envelopes([clean[0], (v1, key.public), *clean[1:]]) == (1,)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("msg_type", SERVER_REVEAL),
            ("sender", "client-1"),
            ("group_id", b"gie"),
            ("round_number", 5),
        ],
    )
    def test_header_fields_never_share_a_signature(self, backend, field, value):
        key = PrivateKey.generate(backend, random.Random(11))
        base = dict(
            msg_type=CLIENT_CIPHERTEXT,
            sender="client-0",
            group_id=b"gid",
            round_number=4,
            body=b"same body",
        )
        first = make_envelope(key, **base)
        second = make_envelope(key, **{**base, field: value})
        assert first.signature != second.signature
        assert first.signed_payload() != second.signed_payload()
        transplanted = dataclasses.replace(first, **{field: value})
        with pytest.raises(InvalidSignature):
            transplanted.verify(key.public)

    def test_altered_vote_rejected_inside_a_certificate(self, backend):
        built = build_keys(backend.name, 3, 2, None, random.Random(21))
        definition = built.definition
        digest, other = hashlib.sha256(b"out").digest(), hashlib.sha256(b"evil").digest()

        def vote(j, d):
            return make_envelope(
                built.server_keys[j],
                SERVER_VOTE,
                definition.server_name(j),
                definition.group_id(),
                6,
                wire.encode_consensus_body(0, d),
            ).signature

        honest = RoundCertificate(6, 0, 0, digest, tuple((j, vote(j, digest)) for j in range(3)))
        honest.verify(definition)
        # Server 1 signed a different body than the certificate claims.
        votes = {0: vote(0, digest), 1: vote(1, other), 2: vote(2, digest)}
        forged = dataclasses.replace(honest, votes=tuple(sorted(votes.items())))
        with pytest.raises(InvalidSignature, match="server-1"):
            forged.verify(definition)
        assert find_invalid_votes(definition, 6, 0, digest, votes) == [1]
        # The same votes do not certify another round or view either.
        for moved in (
            dataclasses.replace(honest, round_number=7),
            dataclasses.replace(honest, view=1),
            dataclasses.replace(honest, digest=other),
        ):
            with pytest.raises(InvalidSignature):
                moved.verify(definition)


class TestPayloadCache:
    def test_replace_never_inherits_the_cache(self, backend):
        (envelope, key), = _batch(backend, 1)
        assert _CACHE in envelope.__dict__  # seeded by the maker
        changed = dataclasses.replace(envelope, body=b"other")
        assert _CACHE not in changed.__dict__
        assert changed.signed_payload() != envelope.signed_payload()
        with pytest.raises(InvalidSignature):
            changed.verify(key)

    def test_round_trips_recompute_from_the_received_bytes(self, backend):
        (envelope, key), = _batch(backend, 1, body_bytes=2000)
        encoded = wire.encode_envelope(backend, envelope)
        decoded = wire.decode_envelope(backend, encoded)
        assert _CACHE not in decoded.__dict__
        decoded.verify(key)
        # A tampered copy on the wire is hashed afresh and fails.
        tampered = wire.decode_envelope(
            backend, encoded.replace(envelope.body, _flip(envelope.body, 7))
        )
        assert _CACHE not in tampered.__dict__
        with pytest.raises(InvalidSignature):
            tampered.verify(key)

    def test_cache_is_invisible_to_eq_repr_and_codecs(self, backend):
        (envelope, key), = _batch(backend, 1)
        cold = wire.decode_envelope(backend, wire.encode_envelope(backend, envelope))
        assert _CACHE in envelope.__dict__ and _CACHE not in cold.__dict__
        assert cold == envelope and hash(cold) == hash(envelope)
        assert repr(cold) == repr(envelope) and _CACHE not in repr(envelope)
        assert dataclasses.asdict(cold).keys() == dataclasses.asdict(envelope).keys()
        assert wire.encode_envelope(backend, cold) == wire.encode_envelope(
            backend, envelope
        )
        assert wire.encode_routed_envelope(
            backend, "server-0", "client-0", cold
        ) == wire.encode_routed_envelope(backend, "server-0", "client-0", envelope)

    def test_cache_is_absent_from_persisted_archives(self):
        session = fresh_session(seed=17)
        session.post(1, b"archived")
        session.run_round()
        server = session.servers[0]
        group = session.definition.group
        archive = server.archive[0]
        assert archive.received_envelopes
        for envelope in archive.received_envelopes.values():
            envelope.signed_payload()
        encoded = persist_codec.encode_archive(group, archive)
        assert _CACHE.encode() not in encoded
        restored = persist_codec.decode_archive(group, encoded)
        assert restored.received_envelopes == archive.received_envelopes
        for index, envelope in restored.received_envelopes.items():
            assert _CACHE not in envelope.__dict__
            envelope.verify(session.definition.client_keys[index])

    def test_output_digest_is_cached_invisibly_and_signed_by_its_envelope(self):
        session = fresh_session(seed=17)
        session.post(1, b"certified")
        output = session.run_round().output
        group = session.definition.group
        body = wire.encode_round_output_body(group, output)
        digest = output_body_digest(group, output)
        assert digest == hashlib.sha256(body).digest() == output.__dict__[_CACHE]
        cold = wire.decode_round_output_body(group, body)
        assert _CACHE not in cold.__dict__
        assert cold == output and repr(cold) == repr(output)
        record = RoundRecord(0, RoundStatus.COMPLETED, cold.participation, cold)
        assert body in persist_codec.encode_record(group, record)
        changed = dataclasses.replace(output, participation=output.participation - 1)
        assert _CACHE not in changed.__dict__
        assert output_body_digest(group, changed) != digest
        # The round-output envelope signs the certified digest, and a
        # client that receives it recomputes the same one.
        envelope = session.servers[0].output_envelope(output)
        assert envelope.body == body and envelope.body_digest() == digest
        received = wire.decode_envelope(group, wire.encode_envelope(group, envelope))
        received.verify(session.definition.server_keys[0])
        assert received.body_digest() == digest

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.integers(min_value=0, max_value=1 << 20).map(
                lambda n: random.Random(n).randbytes(n)
            ),
        ),
        st.integers(min_value=0, max_value=1 << 40),
    )
    def test_wire_round_trip_any_body_size(self, body, round_number):
        group = group_by_name("test-256")
        key = PrivateKey(group, 0xC0FFEE)
        envelope = make_envelope(
            key, CLIENT_CIPHERTEXT, "client-0", b"gid", round_number, body
        )
        assert wire.decode_envelope(group, wire.encode_envelope(group, envelope)) == envelope
        routed = wire.encode_routed_envelope(
            group, "server-1", "client-0", envelope, ack=round_number
        )
        assert routed == wire.encode_routed(
            "server-1",
            "client-0",
            "envelope",
            0,
            wire.encode_envelope(group, envelope),
            ack=round_number,
        )
        frame = wire.decode_routed(routed)
        assert frame.ack == round_number
        decoded = wire.decode_envelope(group, frame.body)
        assert decoded == envelope and type(decoded.body) is bytes
        decoded.verify(key.public)


# ---------------------------------------------------------------------------
# Version hygiene
# ---------------------------------------------------------------------------


class TestVersionRefusal:
    # v1: signatures over the whole body; v2: SHAKE-256 pair pads and
    # commitments over the whole ciphertext.  A v2 peer's pads would not
    # cancel against ours, which must not read as disruption.
    @pytest.mark.parametrize("old", ["v1", "v2"])
    def test_old_envelope_refused_by_magic(self, group, old):
        (envelope, _), = _batch(group, 1)
        encoded = wire.encode_envelope(group, envelope)
        assert wire.decode_envelope(group, encoded) == envelope
        stale = pack_fields(
            f"dissent.wire-envelope.{old}",
            envelope.msg_type,
            envelope.sender,
            envelope.group_id,
            envelope.round_number,
            envelope.body,
            envelope.signature.to_bytes(group),
        )
        with pytest.raises(WireDecodeError, match="magic.*unsupported"):
            wire.decode_envelope(group, stale)
        frame = wire.decode_routed(
            wire.encode_routed("server-0", "client-0", "envelope", 0, stale)
        )
        with pytest.raises(WireDecodeError, match="magic.*unsupported"):
            wire.decode_envelope(group, frame.body)

    @pytest.mark.parametrize("old", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_old_checkpoint_refused_by_version(self, tmp_path, old):
        # 1: v1 signatures; 2: control-plane state outside the shared
        # ``coordinator`` section; 3: archived rounds masked with SHAKE-256
        # pair pads, which a trace today would recompute differently; 4
        # and 5: a version-1 or version-2 group definition, whose policy
        # carries knobs this build's policy no longer has; 6: a hybrid
        # section carrying pad commitments; 7: a hybrid section beside the
        # clients, whose sections now hold their sent history; 8: clients
        # holding their delivery history and archives their cleartext,
        # where the coordinator now holds the session's one delivery log;
        # 9: a JSON document, with wire bytes as hex inside it; 10: member
        # sections without their pair secrets, which a restore would
        # have to derive again.
        path = tmp_path / "old.ckpt"
        document = {"version": old, "kind": "session", "sha256": "", "payload": {}}
        path.write_text(json.dumps(document))
        with pytest.raises(
            CheckpointError, match=f"not a version-{CHECKPOINT_VERSION} checkpoint"
        ):
            read_checkpoint(path)
        # A header of this format naming an older version is refused by it.
        write_checkpoint(path, b"", kind="session")
        magic, version, kind, digest, payload = unpack_fields(path.read_bytes())
        assert version == CHECKPOINT_VERSION
        path.write_bytes(pack_fields(magic, old, kind, digest, payload))
        with pytest.raises(CheckpointError, match=f"version {old}"):
            read_checkpoint(path)


# ---------------------------------------------------------------------------
# receive_reveals screens metadata before it spends crypto
# ---------------------------------------------------------------------------


class TestRevealScreening:
    def test_wrong_length_reveal_costs_no_signature_or_hash_work(self, monkeypatch):
        session = fresh_session(seed=23)
        servers, clients = session.servers, session.clients
        states = [server.open_round(0) for server in servers]
        servers[0].accept_ciphertexts(
            states[0], [c.produce_ciphertext(0) for c in clients]
        )
        pairs = list(zip(servers, states))
        inventories = [server.make_inventory(state) for server, state in pairs]
        for server, state in pairs:
            server.receive_inventories(state, inventories)
        commits = [server.compute_ciphertext(state) for server, state in pairs]
        for server, state in pairs:
            server.receive_commitments(state, commits)
        reveals = [server.reveal_ciphertext(state) for server, state in pairs]
        # Server 2 reveals one byte too many, correctly signed.
        reveals[2] = make_envelope(
            servers[2].key,
            SERVER_REVEAL,
            servers[2].name,
            session.definition.group_id(),
            0,
            reveals[2].body + b"\x00",
        )
        calls = []
        monkeypatch.setattr(
            schnorr, "_challenge", lambda *a: calls.append("schnorr") or 0
        )
        real_sha256 = hashlib.sha256
        monkeypatch.setattr(
            hashlib, "sha256", lambda *a: calls.append("sha256") or real_sha256(*a)
        )
        with pytest.raises(ProtocolError, match="wrong length"):
            servers[0].receive_reveals(states[0], reveals)
        assert calls == []


# ---------------------------------------------------------------------------
# Decoder totality on the view path
# ---------------------------------------------------------------------------


def _routed_envelope(group, body_bytes=300, trace=b""):
    (envelope, _), = _batch(group, 1, body_bytes=body_bytes)
    return (
        wire.encode_routed_envelope(group, "client-0", "server-1", envelope, trace),
        envelope,
    )


def _node_decode(group, payload):
    """What a node does with an inbound payload, up to the envelope."""
    frame = wire.decode_routed(payload)
    if frame.kind == wire.ENVELOPE_KIND:
        return wire.decode_envelope(group, frame.body)
    assert type(frame.body) is bytes
    return frame


def _hostile_payloads(payload, mutations=500, seed=0xD15):
    rng = random.Random(seed)
    yield from (payload[:cut] for cut in range(len(payload)))
    for _ in range(mutations):
        position = rng.randrange(len(payload))
        flipped = payload[position] ^ (1 << rng.randrange(8))
        yield payload[:position] + bytes((flipped,)) + payload[position + 1 :]


class TestViewPathTotality:
    @pytest.mark.parametrize("trace", [b"", b"\x01trace-context"])
    def test_truncations_and_mutations_decode_or_fail_typed(self, group, trace):
        payload, envelope = _routed_envelope(group, trace=trace)
        assert _node_decode(group, payload) == envelope
        outcomes = {"decoded": 0, "typed": 0}
        for hostile in _hostile_payloads(payload):
            for decode in (wire.decode_routed, lambda p: _node_decode(group, p)):
                try:
                    decode(hostile)
                    outcomes["decoded"] += 1
                except WireError:
                    outcomes["typed"] += 1
        # Both arms are exercised: body/trace flips still decode (and
        # would fail verification), header damage fails typed.
        assert outcomes["decoded"] and outcomes["typed"]

    def test_envelope_body_is_the_only_view(self, group):
        payload, envelope = _routed_envelope(group, trace=b"ctx")
        frame = wire.decode_routed(payload)
        assert isinstance(frame.body, memoryview) and frame.body.obj is payload
        assert type(frame.trace) is bytes and frame.trace == b"ctx"
        decoded = wire.decode_envelope(group, frame.body)
        for value in dataclasses.astuple(decoded)[:5]:
            assert type(value) in (str, bytes, int)
        other = wire.decode_routed(wire.encode_routed("a", "b", "reply", 3, b"xyz"))
        assert type(other.body) is bytes

    def test_hub_reports_undecodable_frames_and_keeps_routing(self, group):
        payload, _ = _routed_envelope(group)
        hostile = [payload[:40], payload[:-3], b"\x00" + payload[1:]]

        async def scenario():
            hub = _Hub(group=group)
            hub.expect(["server-1", "client-0"])
            ours, theirs = loopback_pair()
            sink_ours, sink_theirs = loopback_pair()
            tasks = [
                asyncio.ensure_future(hub.attach(ours)),
                asyncio.ensure_future(hub.attach(sink_ours)),
            ]
            hello = pack_fields(group.name, group.element_bytes, b"", 0, 0)
            await theirs.send(wire.encode_routed(COORDINATOR, "server-1", K_HELLO, 0, hello))
            await sink_theirs.send(
                wire.encode_routed(COORDINATOR, "client-0", K_HELLO, 0, hello)
            )
            await hub.wait_ready(timeout=5.0)
            for frame in hostile:
                await theirs.send(frame)
            await theirs.send(payload)
            reports = [await asyncio.wait_for(hub.inbox.get(), 5) for _ in hostile]
            relayed = await asyncio.wait_for(sink_theirs.recv(), 5)
            await theirs.aclose()
            await sink_theirs.aclose()
            await asyncio.gather(*tasks)
            return reports, relayed

        reports, relayed = asyncio.run(scenario())
        assert [r.kind for r in reports] == [K_NODE_ERROR] * len(hostile)
        assert all(r.sender == "server-1" for r in reports)
        # The good frame behind them is forwarded as the very bytes received.
        assert relayed == payload

    def test_node_reports_undecodable_envelope_frames(self, group):
        built = build_keys("test-256", 2, 2, None, random.Random(9))
        payload, _ = _routed_envelope(group)
        hostile = [payload[:40], payload[:-3]]

        async def scenario():
            from repro.core.client import DissentClient

            hub_side, node_side = loopback_pair()
            node = ClientNode(
                DissentClient(
                    built.definition, 0, built.client_keys[0], random.Random(1)
                ),
                node_side,
            )
            task = asyncio.create_task(node.run())
            assert wire.decode_routed(await hub_side.recv()).kind == K_HELLO
            for frame in hostile:
                await hub_side.send(frame)
            reports = [
                wire.decode_routed(await asyncio.wait_for(hub_side.recv(), 5))
                for _ in hostile
            ]
            await hub_side.aclose()
            await task
            return reports

        reports = asyncio.run(scenario())
        assert [r.kind for r in reports] == [K_NODE_ERROR] * len(hostile)


# ---------------------------------------------------------------------------
# Deterministic work gates
# ---------------------------------------------------------------------------


def _peak_allocated(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, result


class TestAllocationGate:
    BODY = 4 << 20

    def test_one_copy_of_a_large_body_per_decode_and_per_send(self, group):
        payload, envelope = _routed_envelope(group, body_bytes=self.BODY)

        spent, decoded = _peak_allocated(lambda: _node_decode(group, payload))
        assert decoded == envelope
        assert spent < 1.5 * self.BODY

        spent, frame = _peak_allocated(lambda: wire.decode_routed(payload))
        assert frame.to == "client-0"
        assert spent < 4096  # the hub's read of the routing header

        spent, built = _peak_allocated(
            lambda: wire.encode_routed_envelope(group, "client-0", "server-1", envelope)
        )
        assert built == payload
        assert spent < 1.5 * self.BODY


class TestMessageSizeGate:
    def test_schnorr_sees_digests_and_each_body_is_hashed_once(self, monkeypatch):
        """One quick-shape round (toy group, 3 servers, 4 clients, 2,000-byte
        posts, every node in this process over loopback)."""
        messages, passes, made, checked = [], [], [], {}
        real_challenge = schnorr._challenge
        real_digest = message.body_digest
        real_sign = message.sign
        real_signed_payload = SignedEnvelope.signed_payload

        def challenge(group, y, t, msg):
            # Every sign, verify and batch_verify hashes its message here.
            messages.append(len(msg))
            return real_challenge(group, y, t, msg)

        def body_digest(body):
            passes.append(len(body))
            return real_digest(body)

        def sign(key, msg):
            made.append(len(msg))
            return real_sign(key, msg)

        def signed_payload(envelope):
            # Keep the object alive so ids stay unique; remember whether it
            # arrived with the maker's digest (made here) or cold (decoded).
            checked.setdefault(id(envelope), (envelope, _CACHE in envelope.__dict__))
            return real_signed_payload(envelope)

        with NetworkedSession.build(
            num_servers=3, num_clients=4, seed=2012, mode="loopback"
        ) as session:
            session.setup()
            for i in range(4):
                session.post(i, bytes([i]) * 2000)
            session.run_rounds(3)  # slots open and grow to carry the posts
            per_round = []
            for _ in range(2):
                for log in (messages, passes, made):
                    log.clear()
                checked.clear()
                for i in range(4):
                    session.post(i, bytes([i]) * 2000)
                with monkeypatch.context() as patch:
                    patch.setattr(schnorr, "_challenge", challenge)
                    patch.setattr(message, "body_digest", body_digest)
                    patch.setattr(message, "sign", sign)
                    patch.setattr(SignedEnvelope, "signed_payload", signed_payload)
                    session.run_round()
                cold = sum(1 for _, warm in checked.values() if not warm)
                per_round.append((len(messages), len(passes), len(made), cold))
                assert max(messages) <= 256
                assert max(passes) >= 4 * 2000  # real bulk bodies went through
                # One SHA-256 pass per envelope made plus one per received
                # envelope verified — however many times each is checked —
                # less each server's reveal and round-output envelope, which
                # are signed over digests their maker already holds (its
                # commitment's and the certified one).
                assert len(passes) == len(made) + cold - 2 * 3
                assert cold > 0 and len(made) > 0
        assert per_round[0] == per_round[1]


def _holder() -> str:
    """The node whose code is running: the first ``self`` up the stack that
    is, or drives, a server or a client; anything else is the coordinator."""
    frame = sys._getframe(1)
    while frame is not None:
        owner = frame.f_locals.get("self")
        for node in (owner, *(getattr(owner, a, None) for a in ("server", "client"))):
            if isinstance(node, (DissentServer, DissentClient)):
                return node.name
        frame = frame.f_back
    return "coordinator"


class TestBulkWorkGate:
    """Byte work of one quick-shape round (toy group, M = 3 servers, N = 4
    clients all posting 2,000 bytes, every node in this process over
    loopback), filed under the node that holds the bytes.  Each bulk byte
    costs one pad squeeze, one integer conversion per XOR operand and one
    SHA-256 pass per node holding it."""

    N, M = 4, 3

    def test_one_pass_per_bulk_byte_per_holder(self, monkeypatch):
        N, M = self.N, self.M
        squeezes, pads, hashed, converted = [], set(), [], []
        real_stream = prng.pair_stream
        real_sha256 = hashlib.sha256

        def pair_stream(secret, round_number, length):
            pad = real_stream(secret, round_number, length)
            squeezes.append(length)
            pads.add(pad)
            return pad

        class Sha256:
            """``hashlib.sha256`` as the library uses it: bytes in, digest out."""

            def __init__(self, data=b""):
                self._hash, self._length = real_sha256(data), len(data)

            def update(self, data):
                self._hash.update(data)
                self._length += len(data)

            def digest(self):
                digest = self._hash.digest()
                hashed.append((_holder(), self._length, digest))
                return digest

            def hexdigest(self):
                return self.digest().hex()

        class Int(int):
            # Every DC-net buffer is converted in repro.util.bytesops.
            @classmethod
            def from_bytes(cls, data, *args, **kwargs):
                converted.append((_holder(), len(data), data in pads))
                return int.from_bytes(data, *args, **kwargs)

        with NetworkedSession.build(
            num_servers=M, num_clients=N, seed=2012, mode="loopback"
        ) as session:
            session.setup()
            for i in range(N):
                session.post(i, bytes([i]) * 2000)
            session.run_rounds(3)  # slots open and grow to carry the posts
            for i in range(N):
                session.post(i, bytes([i]) * 2000)
            with monkeypatch.context() as patch:
                patch.setattr(prng, "pair_stream", pair_stream)
                patch.setattr(hashlib, "sha256", Sha256)
                patch.setattr(bytesops, "int", Int, raising=False)
                assert session.run_round().completed
            definition = session.definition
            attached = collections.Counter(
                definition.server_name(definition.upstream_server(i)) for i in range(N)
            )

        # Each client squeezes its M pads and each server its N: 2·N·M
        # round-length pads, the pad bytes of the round.
        (length,) = set(squeezes)
        assert length > N * 2000
        assert len(squeezes) == 2 * N * M

        clients = [f"client-{i}" for i in range(N)]
        servers = [f"server-{j}" for j in range(M)]
        passes = collections.Counter(h for h, n, _ in hashed if n >= length)
        per_buffer = collections.Counter((h, d) for h, n, d in hashed if n >= length)
        # No node hashes the same round-length bytes twice ...
        assert set(per_buffer.values()) == {1}
        # ... a client hashes its ciphertext, the round-output envelope and
        # the cleartext the M output signatures cover; a server its
        # attached clients' ciphertexts, s_j, the M - 1 peer reveals, the
        # cleartext and the output body; the coordinator the output body
        # the servers reported.
        assert passes == {
            **{c: 3 for c in clients},
            **{s: attached[s] + M + 2 for s in servers},
            "coordinator": 1,
        }

        conversions = collections.Counter(h for h, n, _ in converted if n >= length)
        # A client converts its M pads and no full-length cleartext ...
        for holder, n, is_pad in converted:
            if holder in clients and n >= length:
                assert is_pad
        # ... a server its N pads, its attached clients' ciphertexts and the
        # M reveals it combines.
        assert conversions == {
            **{c: M for c in clients},
            **{s: N + attached[s] + M for s in servers},
        }
