"""Adversarial framing and transport tests.

Oversized frames, truncated frames, garbage bytes, and unknown message
types must be rejected with **typed** errors — and none of them may crash
a node's dispatch loop: the node reports the error to the coordinator and
keeps serving.
"""

import asyncio
import random

import pytest

from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.errors import (
    ConnectionClosed,
    FrameTooLarge,
    FrameTruncated,
    ProtocolError,
    UnknownMessageType,
    WireDecodeError,
)
from repro.net import wire
from repro.net.message import SignedEnvelope, make_envelope, CLIENT_CIPHERTEXT
from repro.net.node import (
    COORDINATOR,
    ClientNode,
    K_EVIDENCE_REQUEST,
    K_NODE_ERROR,
    K_REPLY,
    K_REPLY_ERROR,
    K_STATUS_REQUEST,
    ServerNode,
)
from repro.net.transport import (
    FaultSchedule,
    TcpTransport,
    connect_tcp,
    loopback_pair,
    serve_tcp,
)
from repro.crypto.schnorr import Signature
from repro.util.serialization import pack_fields, unpack_fields


class TestFrameDecoder:
    def test_oversized_announcement_rejected_before_buffering(self):
        decoder = wire.FrameDecoder(max_frame_bytes=64)
        with pytest.raises(FrameTooLarge):
            decoder.feed((65).to_bytes(4, "big"))

    def test_truncated_stream_detected_at_finish(self):
        decoder = wire.FrameDecoder()
        assert decoder.feed(wire.encode_frame(b"whole") + b"\x00\x00") == [b"whole"]
        with pytest.raises(FrameTruncated):
            decoder.finish()

    def test_encode_enforces_cap(self):
        with pytest.raises(FrameTooLarge):
            wire.encode_frame(b"x" * 65, max_frame_bytes=64)


class TestEnvelopeDecodeRejection:
    def test_garbage_bytes_typed_error(self, group):
        with pytest.raises(WireDecodeError):
            wire.decode_envelope(group, b"\xff\xfe definitely not an envelope")

    def test_unknown_msg_type_rejected_at_decode(self, group, keypair):
        # Hand-craft an otherwise well-formed envelope with a bogus tag:
        # the decoder must refuse to materialize it for dispatch.
        signature = Signature(1, 1)
        encoded = pack_fields(
            "dissent.wire-envelope.v2",
            "evil-type",
            "client-0",
            b"gid",
            3,
            b"body",
            signature.to_bytes(group),
        )
        with pytest.raises(UnknownMessageType):
            wire.decode_envelope(group, encoded)

    def test_unknown_msg_type_rejected_at_construction(self, group, keypair):
        # The satellite fix: _KNOWN_TYPES gating applies to every
        # SignedEnvelope construction, not just make_envelope.
        with pytest.raises(ProtocolError):
            SignedEnvelope(
                msg_type="evil-type",
                sender="client-0",
                group_id=b"gid",
                round_number=0,
                body=b"",
                signature=Signature(1, 1),
            )

    def test_wrong_field_types_rejected(self, group):
        encoded = pack_fields(
            "dissent.wire-envelope.v2",
            "client-ciphertext",
            7,  # sender must be a string
            b"gid",
            3,
            b"body",
            b"sig",
        )
        with pytest.raises(WireDecodeError):
            wire.decode_envelope(group, encoded)


class TestTcpTransport:
    def test_roundtrip_and_clean_close(self):
        async def scenario():
            received = []

            async def handler(transport):
                received.append(await transport.recv())
                await transport.send(b"pong")
                await transport.aclose()

            server, port = await serve_tcp(handler)
            client = await connect_tcp("127.0.0.1", port)
            await client.send(b"ping")
            reply = await client.recv()
            with pytest.raises(ConnectionClosed):
                await client.recv()
            server.close()
            await server.wait_closed()
            return received, reply

        received, reply = asyncio.run(scenario())
        assert received == [b"ping"] and reply == b"pong"

    def test_oversized_frame_rejected(self):
        async def scenario():
            async def handler(transport):
                # Announce a frame far over the cap, never send the body.
                transport.writer.write((1 << 30).to_bytes(4, "big"))
                await transport.writer.drain()

            server, port = await serve_tcp(handler)
            client = await connect_tcp("127.0.0.1", port)
            with pytest.raises(FrameTooLarge):
                await client.recv()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_truncated_frame_rejected(self):
        async def scenario():
            async def handler(transport):
                transport.writer.write((100).to_bytes(4, "big") + b"only-part")
                transport.writer.close()

            server, port = await serve_tcp(handler)
            client = await connect_tcp("127.0.0.1", port)
            with pytest.raises(FrameTruncated):
                await client.recv()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


class TestLoopbackFaults:
    def test_drop_schedule_is_deterministic(self):
        async def scenario():
            a, b = loopback_pair(a_to_b=FaultSchedule(drop=frozenset({1})))
            for payload in (b"f0", b"f1", b"f2"):
                await a.send(payload)
            return [await b.recv(), await b.recv()]

        assert asyncio.run(scenario()) == [b"f0", b"f2"]

    def test_swap_reorders_adjacent_frames(self):
        async def scenario():
            a, b = loopback_pair(a_to_b=FaultSchedule(swap=frozenset({0})))
            await a.send(b"f0")
            await a.send(b"f1")
            await a.send(b"f2")
            return [await b.recv() for _ in range(3)]

        assert asyncio.run(scenario()) == [b"f1", b"f0", b"f2"]

    def test_swap_flushes_at_close(self):
        async def scenario():
            a, b = loopback_pair(a_to_b=FaultSchedule(swap=frozenset({0})))
            await a.send(b"held")
            await a.aclose()
            return await b.recv()

        assert asyncio.run(scenario()) == b"held"

    def test_latency_delays_but_preserves_order(self):
        async def scenario():
            a, b = loopback_pair(a_to_b=FaultSchedule(latency=0.01))
            start = asyncio.get_running_loop().time()
            await a.send(b"f0")
            await a.send(b"f1")
            frames = [await b.recv(), await b.recv()]
            return frames, asyncio.get_running_loop().time() - start

        frames, elapsed = asyncio.run(scenario())
        assert frames == [b"f0", b"f1"]
        assert elapsed >= 0.02

    def test_cap_enforced(self):
        async def scenario():
            a, _ = loopback_pair(max_frame_bytes=16)
            with pytest.raises(FrameTooLarge):
                await a.send(b"x" * 17)

        asyncio.run(scenario())


def _small_group(num_servers=2, num_clients=2, seed=5):
    rng = random.Random(seed)
    built = build_keys("test-256", num_servers, num_clients, None, rng)
    return built, rng


async def _drive_node(node_factory, frames, extra_request=None):
    """Run a node over a loopback pair, inject frames, collect its output.

    Returns every routed frame the node emitted.  After the injected
    frames, a seq'd status probe checks the dispatch loop still answers.
    """
    hub_side, node_side = loopback_pair()
    node = node_factory(node_side)
    task = asyncio.create_task(node.run())
    hello = wire.decode_routed(await hub_side.recv())
    assert hello.kind == "hello"
    emitted = []
    for payload in frames:
        await hub_side.send(payload)
    # Probe: the node must still answer requests after the hostile input.
    probe = extra_request or (K_STATUS_REQUEST, b"")
    await hub_side.send(
        wire.encode_routed(node.name, COORDINATOR, probe[0], 999, probe[1])
    )
    while True:
        frame = wire.decode_routed(await hub_side.recv())
        emitted.append(frame)
        if frame.seq == 999:
            break
    await hub_side.aclose()
    task.cancel()
    return emitted


class TestDispatchLoopSurvival:
    def test_client_node_survives_garbage_and_unknown_types(self, group):
        built, _ = _small_group()
        definition = built.definition

        def factory(transport):
            node_rng = random.Random(7)
            return ClientNode(
                DissentClient(
                    definition,
                    0,
                    _client_key(built, 0),
                    node_rng,
                ),
                transport,
            )

        bogus_envelope = pack_fields(
            "dissent.wire-envelope.v2",
            "evil-type",
            "client-9",
            b"gid",
            0,
            b"",
            Signature(1, 1).to_bytes(definition.group),
        )
        frames = [
            b"\x00garbage that is not a routed frame",
            wire.encode_routed("client-0", COORDINATOR, "no-such-kind", 0, b""),
            wire.encode_routed("client-0", COORDINATOR, "envelope", 0, b"junk"),
            wire.encode_routed("client-0", COORDINATOR, "envelope", 0, bogus_envelope),
        ]
        emitted = asyncio.run(_drive_node(factory, frames))
        errors = [f for f in emitted if f.kind == K_NODE_ERROR]
        # Every hostile frame produced a typed report, none killed the loop.
        assert len(errors) == len(frames)
        reply = emitted[-1]
        assert reply.kind == K_REPLY and reply.seq == 999
        pending, accusation = unpack_fields(reply.body)
        assert (pending, accusation) == (0, 0)

    def test_unknown_kind_with_seq_gets_typed_reply_error(self):
        built, _ = _small_group()
        definition = built.definition

        def factory(transport):
            return ClientNode(
                DissentClient(definition, 0, _client_key(built, 0), random.Random(7)),
                transport,
            )

        async def scenario():
            hub_side, node_side = loopback_pair()
            task = asyncio.create_task(factory(node_side).run())
            await hub_side.recv()  # hello
            await hub_side.send(
                wire.encode_routed("client-0", COORDINATOR, "bogus-kind", 5, b"")
            )
            frame = wire.decode_routed(await hub_side.recv())
            task.cancel()
            return frame

        frame = asyncio.run(scenario())
        assert frame.kind == K_REPLY_ERROR and frame.seq == 5
        name, message = unpack_fields(frame.body)
        assert name == "WireDecodeError"

    def test_server_node_survives_protocol_violations(self):
        built, _ = _small_group()
        definition = built.definition

        def factory(transport):
            return ServerNode(
                DissentServer(definition, 0, _server_key(built, 0), random.Random(3)),
                transport,
            )

        frames = [
            # commit-go for a round that is not in progress
            wire.encode_routed("server-0", COORDINATOR, "commit-go", 0, pack_fields(9)),
            # valid-looking envelope for an unopened round from a stranger:
            # buffered, not fatal (legitimate out-of-order arrival).
            b"not even a frame \xff",
        ]
        emitted = asyncio.run(
            _drive_node(
                factory,
                frames,
                extra_request=(K_EVIDENCE_REQUEST, pack_fields(4)),
            )
        )
        errors = [f for f in emitted if f.kind == K_NODE_ERROR]
        assert len(errors) == 2
        reply = emitted[-1]
        # The probe itself hits an un-archived round: a *typed* error reply,
        # proving the loop still classifies and answers.
        assert reply.kind == K_REPLY_ERROR and reply.seq == 999
        name, message = unpack_fields(reply.body)
        assert name == "AccusationError"

    def test_early_ciphertext_buffered_not_fatal(self):
        built, _ = _small_group()
        definition = built.definition
        client_key = _client_key(built, 0)

        def factory(transport):
            return ServerNode(
                DissentServer(definition, 0, _server_key(built, 0), random.Random(3)),
                transport,
            )

        envelope = make_envelope(
            client_key, CLIENT_CIPHERTEXT, "client-0", definition.group_id(), 0, b"x"
        )
        frames = [
            wire.encode_routed(
                "server-0",
                "client-0",
                "envelope",
                0,
                wire.encode_envelope(definition.group, envelope),
            )
        ]
        emitted = asyncio.run(
            _drive_node(factory, frames, extra_request=("expel", pack_fields(1)))
        )
        errors = [f for f in emitted if f.kind == K_NODE_ERROR]
        assert errors == []  # buffered silently for the future round
        assert emitted[-1].kind == K_REPLY


def _client_key(built, index):
    return built.client_keys[index]


def _server_key(built, index):
    return built.server_keys[index]
