"""Adversarial framing and transport tests.

Oversized frames, truncated frames, garbage bytes, and unknown message
types must be rejected with **typed** errors — and none of them may crash
a node's dispatch loop: the node reports the error to the coordinator and
keeps serving.
"""

import asyncio
import random
import time

import pytest

from repro.core.accusation import accusation_max_bytes
from repro.core.client import DissentClient
from repro.core.keyshuffle import open_shuffle_submissions, shuffle_run_id
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.errors import (
    ConnectionClosed,
    DissentError,
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
    K_EXPEL,
    K_HELLO,
    K_INVENTORY_STATUS,
    K_NODE_ERROR,
    K_REPLY,
    K_REPLY_ERROR,
    K_ROUND_APPLIED,
    K_ROUND_DONE,
    K_STATUS_REQUEST,
    ServerNode,
)
from repro.net.runner import NetworkedSession, _Hub
from repro.net.transport import (
    FaultSchedule,
    FaultyTransport,
    TcpTransport,
    connect_tcp,
    loopback_pair,
    serve_tcp,
)
from repro.crypto.groups import group_by_name, resolve_group_name
from repro.crypto.prng import pair_stream_bit
from repro.crypto.shuffle import message_vector_width
from repro.crypto.schnorr import Signature
from repro.persist.checkpoint import read_checkpoint
from repro.persist.codec import encode_node_state
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
            "dissent.wire-envelope.v3",
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
            "dissent.wire-envelope.v3",
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


def _faulty_pair(schedule):
    """A loopback pair whose ``a`` side sends through ``schedule``."""
    a, b = loopback_pair()
    return FaultyTransport(a, schedule), b


class TestLoopbackFaults:
    def test_drop_schedule_is_deterministic(self):
        async def scenario():
            a, b = _faulty_pair(FaultSchedule(drop=frozenset({1})))
            for payload in (b"f0", b"f1", b"f2"):
                await a.send(payload)
            return [await b.recv(), await b.recv()]

        assert asyncio.run(scenario()) == [b"f0", b"f2"]

    def test_swap_reorders_adjacent_frames(self):
        async def scenario():
            a, b = _faulty_pair(FaultSchedule(swap=frozenset({0})))
            await a.send(b"f0")
            await a.send(b"f1")
            await a.send(b"f2")
            return [await b.recv() for _ in range(3)]

        assert asyncio.run(scenario()) == [b"f1", b"f0", b"f2"]

    def test_swap_flushes_at_close(self):
        async def scenario():
            a, b = _faulty_pair(FaultSchedule(swap=frozenset({0})))
            await a.send(b"held")
            await a.aclose()
            return await b.recv()

        assert asyncio.run(scenario()) == b"held"

    def test_latency_delays_but_preserves_order(self):
        async def scenario():
            a, b = _faulty_pair(FaultSchedule(latency=0.01))
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
            "dissent.wire-envelope.v3",
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


class TestServerNodeRecord:
    def test_restore_drops_a_begun_round_with_its_view_timer(self):
        """A server node keeps one record per begun round, view timer
        included, so a pushed state that drops the round drops the timer."""
        built, _ = _small_group()

        async def scenario():
            _, node_side = loopback_pair()
            node = ServerNode(
                DissentServer(
                    built.definition, 0, _server_key(built, 0), random.Random(3)
                ),
                node_side,
            )
            barrier = encode_node_state(node)
            await node._begin_round(0, [])
            node._arm_timer(0, 0)
            timer = node._clocks[0].timer
            node._restore(barrier)
            return node, timer

        node, timer = asyncio.run(scenario())
        assert timer.cancelled()
        assert node._clocks == {} and node.engine.rounds == {}


def _client_key(built, index):
    return built.client_keys[index]


def _server_key(built, index):
    return built.server_keys[index]


class TestHubResume:
    def test_unreplayable_gap_is_refused(self, group):
        """A node resuming behind the trimmed outbox gets one typed refusal.

        The hub keeps the last ``outbox_limit`` frames per peer; replaying
        only part of a gap would corrupt the protocol stream, so the hub
        reports the gap, closes the new connection and leaves the link dark.
        """
        session_id = b"session-id"

        def hello(high_water):
            body = pack_fields(
                group.name, group.element_bytes, session_id, 0, high_water
            )
            return wire.encode_routed(COORDINATOR, "client-0", K_HELLO, 0, body)

        async def scenario():
            hub = _Hub(group=group, session_id=session_id, outbox_limit=2)
            hub.expect(["client-0"])
            hub_side, node_side = loopback_pair()
            first = asyncio.ensure_future(hub.attach(hub_side))
            await node_side.send(hello(0))
            await hub.wait_ready(timeout=5.0)
            await node_side.aclose()
            await asyncio.wait_for(first, 5)
            assert hub.is_dark("client-0")
            for n in range(5):  # frames 1..5; the outbox keeps 4 and 5
                await hub.deliver("client-0", pack_fields(n))
            hub_side, node_side = loopback_pair()
            second = asyncio.ensure_future(hub.attach(hub_side))
            await node_side.send(hello(1))
            await asyncio.wait_for(second, 5)
            reports = []
            while not hub.inbox.empty():
                reports.append(hub.inbox.get_nowait())
            with pytest.raises(ConnectionClosed):
                await asyncio.wait_for(node_side.recv(), 5)
            return reports, hub

        reports, hub = asyncio.run(scenario())
        assert [(r.kind, r.sender) for r in reports] == [(K_NODE_ERROR, "client-0")]
        name, message = unpack_fields(reports[0].body)
        assert name == "ProtocolError"
        assert "resumed at frame 1" in message and "outbox starts at 4" in message
        assert hub.is_dark("client-0") and "client-0" not in hub.transports

    def test_acknowledged_gap_is_refused(self, group):
        """Frames the node acknowledged are gone, so resuming below them is
        refused like any other unreplayable gap — an empty outbox is not a
        licence to resume silently."""

        async def scenario():
            hub, kept = await _hub_after_acks(group, acked=5)
            hub_side, node_side = loopback_pair()
            second = asyncio.ensure_future(hub.attach(hub_side))
            await node_side.send(_hello(group, high_water=2))
            await asyncio.wait_for(second, 5)
            with pytest.raises(ConnectionClosed):
                await asyncio.wait_for(node_side.recv(), 5)
            return kept, await asyncio.wait_for(hub.inbox.get(), 5), hub

        kept, report, hub = asyncio.run(scenario())
        assert kept == []
        assert (report.kind, report.sender) == (K_NODE_ERROR, "client-0")
        name, message = unpack_fields(report.body)
        assert name == "ProtocolError"
        assert "resumed at frame 2" in message and "outbox starts at 6" in message
        assert hub.is_dark("client-0") and "client-0" not in hub.transports

    def test_resume_replays_only_unacknowledged_frames(self, group):
        async def scenario():
            hub, kept = await _hub_after_acks(group, acked=3)
            hub_side, node_side = loopback_pair()
            hub.spawn_attach(hub_side)
            await node_side.send(_hello(group, high_water=3))
            replayed = [await asyncio.wait_for(node_side.recv(), 5) for _ in kept]
            live = "client-0" in hub.transports
            await hub.close()
            return kept, replayed, live

        kept, replayed, live = asyncio.run(scenario())
        assert kept == [4, 5]
        assert replayed == [pack_fields(4), pack_fields(5)] and live


_SESSION_ID = b"session-id"


def _hello(group, high_water):
    body = pack_fields(group.name, group.element_bytes, _SESSION_ID, 0, high_water)
    return wire.encode_routed(COORDINATOR, "client-0", K_HELLO, 0, body)


async def _hub_after_acks(group, acked):
    """A hub that sent client-0 frames 1..5, then heard it ack ``acked``
    of them before its link dropped; returns (hub, outbox seqs kept)."""
    hub = _Hub(group=group, session_id=_SESSION_ID)
    hub.expect(["client-0"])
    hub_side, node_side = loopback_pair()
    first = asyncio.ensure_future(hub.attach(hub_side))
    await node_side.send(_hello(group, high_water=0))
    await hub.wait_ready(timeout=5.0)
    for n in range(1, 6):
        await hub.deliver("client-0", pack_fields(n))
        await node_side.recv()
    # The ack rides whatever the node sends next, here a barrier frame.
    await node_side.send(
        wire.encode_routed(COORDINATOR, "client-0", K_ROUND_APPLIED, 0, b"", ack=acked)
    )
    assert (await asyncio.wait_for(hub.inbox.get(), 5)).kind == K_ROUND_APPLIED
    kept = [seq for seq, _payload in hub.links["client-0"].outbox]
    await node_side.aclose()
    await asyncio.wait_for(first, 5)
    return hub, kept


def _client_node_factory(built, checkpoint_path=None):
    definition = built.definition

    def factory(transport):
        client = DissentClient(definition, 0, _client_key(built, 0), random.Random(7))
        return ClientNode(client, transport, checkpoint_path=checkpoint_path)

    return factory


class TestNodeAcks:
    def test_node_without_checkpoint_acks_every_frame_it_processed(self):
        built, _ = _small_group()
        frames = [
            b"\x00garbage that is not a routed frame",
            wire.encode_routed("client-0", COORDINATOR, "no-such-kind", 0, b""),
        ]
        emitted = asyncio.run(_drive_node(_client_node_factory(built), frames))
        # Two error reports, then the probe's reply: each acks the frames
        # processed before it was sent.
        assert [(f.kind, f.ack) for f in emitted] == [
            (K_NODE_ERROR, 1),
            (K_NODE_ERROR, 2),
            (K_REPLY, 3),
        ]

    def test_checkpointing_node_acks_its_last_checkpoint(self, tmp_path):
        """The ack never passes the durable mark: a node restarted from its
        checkpoint resumes there, so frames after it must stay outboxed."""
        built, _ = _small_group()
        path = str(tmp_path / "client-0.ckpt")
        factory = _client_node_factory(built, checkpoint_path=path)

        async def scenario():
            hub_side, node_side = loopback_pair()
            node = factory(node_side)
            task = asyncio.create_task(node.run())

            async def probe(seq):
                await hub_side.send(
                    wire.encode_routed(node.name, COORDINATOR, K_STATUS_REQUEST, seq, b"")
                )
                return wire.decode_routed(await hub_side.recv()).ack

            acks = [wire.decode_routed(await hub_side.recv()).ack, await probe(1)]
            node._maybe_checkpoint()  # a round barrier after frame 1
            acks += [await probe(2), await probe(3)]
            processed = node.recv_count
            await hub_side.aclose()
            task.cancel()

            hub_side, node_side = loopback_pair()
            restarted = factory(node_side)
            restarted.resume_from(path)
            task = asyncio.create_task(restarted.run())
            hello = wire.decode_routed(await hub_side.recv())
            await hub_side.aclose()
            task.cancel()
            return acks, processed, hello

        acks, processed, hello = asyncio.run(scenario())
        assert processed == 3
        # The node section's third field is its recv_count.
        assert unpack_fields(read_checkpoint(path, kind="node"))[2] == 1
        assert acks == [0, 0, 1, 1]
        # The restarted node resumes from, and acks, that same mark.
        assert hello.kind == K_HELLO and hello.ack == 1
        assert unpack_fields(hello.body)[4] == 1


    def test_restored_session_acks_frames_of_its_own_hub(self, tmp_path):
        """State pushed into a restored session's fresh nodes came from
        another hub; their acks count only the frames this hub sent them,
        or they would acknowledge frames they never saw."""
        path = str(tmp_path / "session.ckpt")
        with NetworkedSession.build(num_servers=2, num_clients=3, seed=11) as session:
            session.setup()
            for _ in range(3):
                session.post(0, b"x" * 100)
                session.run_round()
            session.checkpoint(path)
        with NetworkedSession.restore(path) as session:
            session.run_rounds(2)
            counts = {
                name: (node.recv_count, session._hub.links[name].seq)
                for name, node in session._node_objects.items()
            }
        assert all(processed == sent for processed, sent in counts.values()), counts


class TestOutboxPlateau:
    def test_hub_outboxes_stop_growing(self):
        """The hub keeps what nodes have not acknowledged, not history.

        Every node's barrier frame acks the round it closes, so the hub's
        outboxes hold the same after round 12 as after round 4, and no
        link holds more than one round's frames.  The acks ride frames the
        nodes send anyway: 54 a certified round, as before acks existed.
        """
        with NetworkedSession.build(
            num_servers=3,
            num_clients=4,
            seed=11,
            mode="loopback",
            group_name="test-256",
        ) as session:
            session.setup()
            hub = session._hub

            def sent_frames():
                return sum(
                    node.registry.counter("net.sent.frames.total").value
                    for node in session._node_objects.values()
                )

            totals, frames_per_round = {}, []
            for round_index in range(1, 13):
                seqs = {name: link.seq for name, link in hub.links.items()}
                before = sent_frames()
                for i in range(4):
                    session.post(i, bytes([64 + round_index]) * 2000)
                assert session.run_round().certificate is not None
                frames_per_round.append(sent_frames() - before)
                for name, link in hub.links.items():
                    assert len(link.outbox) <= link.seq - seqs[name], name
                totals[round_index] = (
                    sum(len(link.outbox) for link in hub.links.values()),
                    sum(
                        len(payload)
                        for link in hub.links.values()
                        for _seq, payload in link.outbox
                    ),
                )
        assert totals[12] == totals[4]
        assert frames_per_round == [54] * 12


def _forge(session, as_node, to, kind, seq, body, sender=None):
    """Send a routed frame down ``as_node``'s own link, under its name or
    under ``sender``."""
    node = session._node_objects[as_node]
    payload = wire.encode_routed(
        to, sender or as_node, kind, seq, body, ack=node.ack
    )
    session._call(node._send_payload(payload))


def _wait_for_node_errors(session, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while len(session._node_errors) < count:
        assert time.monotonic() < deadline, session._node_errors
        time.sleep(0.01)
    return list(session._node_errors)


class TestSenderAuthentication:
    """Only the coordinator steers nodes, and the coordinator believes a
    node only about itself: the hub checks every frame's sender against
    its link, nodes take control frames only from the coordinator, and
    replies and barrier frames count only from the node they belong to."""

    @staticmethod
    def _session(num_clients=4):
        session = NetworkedSession.build(
            num_servers=2, num_clients=num_clients, seed=7, mode="loopback"
        )
        session.setup()
        return session

    def _assert_full_round(self, session):
        for name in ("server-0", "server-1"):
            assert session._node_objects[name].server.expelled == set()
        assert session.expelled == set()
        record = session.run_round()
        assert record.certificate is not None
        assert record.participation == session.definition.num_clients

    def test_a_client_cannot_expel_another_client(self):
        with self._session() as session:
            _forge(session, "client-3", "server-0", K_EXPEL, 0, pack_fields(1))
            [error] = _wait_for_node_errors(session, 1)
            assert error.startswith("server-0: ProtocolError")
            assert "control frames come from the coordinator" in error
            self._assert_full_round(session)

    def test_the_hub_refuses_a_frame_under_another_name(self):
        with self._session() as session:
            _forge(session, "client-3", "server-0", K_EXPEL, 0, pack_fields(1))
            _forge(
                session,
                "client-3",
                "server-1",
                K_EXPEL,
                0,
                pack_fields(2),
                sender=COORDINATOR,
            )
            errors = _wait_for_node_errors(session, 2)
            assert any(
                error.startswith("client-3: ProtocolError")
                and "as 'coord'" in error
                for error in errors
            ), errors
            self._assert_full_round(session)

    def test_only_servers_report_inventory_status(self):
        with self._session() as session:
            r = session.round_number
            _forge(
                session,
                "client-3",
                COORDINATOR,
                K_INVENTORY_STATUS,
                0,
                pack_fields(r, 1, 1),
            )
            self._assert_full_round(session)

    def test_only_the_node_asked_answers_a_request(self):
        with self._session(num_clients=8) as session:
            session.post(5, b"for client five")
            session.run_until_quiet()
            forged = pack_fields(1, 1)  # "traffic and an accusation pending"

            async def race():
                seq = session._seq
                asks = [
                    asyncio.ensure_future(
                        session._request(name, K_STATUS_REQUEST, b"")
                    )
                    for name in ("client-0", "client-5")
                ]
                await asyncio.sleep(0)  # both requests are out, both pending
                client0 = session._node_objects["client-0"]
                for answered in (seq + 1, seq + 2):
                    await client0._send(COORDINATOR, K_REPLY, answered, forged)
                return await asyncio.gather(*asks)

            _, reply = session._call(race())
            # Client 5's own answer: its post went out, nothing pending.
            assert reply == pack_fields(0, 0)
            assert reply != forged


#: What a mutation does to a field's type.
_RETYPED = {int: lambda v: str(v).encode(), bytes: len, str: str.encode}


def _mutations(arity):
    """Every one-field mutation of an ``arity``-field packed body, by name:
    keep the first field alone, drop or retype one field, cut the last
    byte, append a field.  Each maps the honest body to the forged one."""

    def refield(change):
        return lambda body: pack_fields(*change(unpack_fields(body)))

    found = {}
    if arity > 1:
        found["first field alone"] = refield(lambda f: f[:1])
    for i in range(arity):
        found[f"drop {i}"] = refield(lambda f, i=i: f[:i] + f[i + 1 :])
        found[f"retype {i}"] = refield(
            lambda f, i=i: [*f[:i], _RETYPED[type(f[i])](f[i]), *f[i + 1 :]]
        )
    found["truncate"] = lambda body: body[:-1]
    found["append"] = refield(lambda f: [*f, 0])
    return found


def _intercept(node, kind, forge):
    """Hand ``node``'s next ``kind`` frame to ``forge(send, seq, body)``
    instead of sending it; ``send(kind, seq, body)`` sends a frame to the
    same peer down the node's own link."""
    honest = node._send

    async def send(to, sent, seq, body, trace=b""):
        if sent != kind:
            return await honest(to, sent, seq, body, trace)
        del node._send  # one frame only
        await forge(lambda k, s, b: honest(to, k, s, b, trace), seq, body)

    node._send = send


#: A node error or reply error as a node sends one.
_ERROR_BODY = pack_fields("ProtocolError", "forged")


def _scheduling_submissions(session):
    """What ``setup`` asks the clients, and reads, before the cascade."""
    purpose = b"dissent.key-shuffle|" + session.definition.group_id()
    _, publics = session._session_keys(purpose)
    return open_shuffle_submissions(
        session.definition,
        session._scheduling_submissions(purpose, publics),
        shuffle_run_id(purpose, publics),
    )


def _rebuttal(session):
    """Client 2 asked to rebut a false claim about server 0's pair bit."""
    client = session._node_objects["client-2"].client
    false_bit = 1 ^ pair_stream_bit(client.secrets[0], 0, 0)
    rebuttal = session._rebuttal(2, 0, 0, {0: false_bit})
    assert rebuttal is not None  # the honest reply rebuts


#: Each reply body the coordinator decodes past the control table: the
#: member of the right role that answers, and the call that asks.
_REPLIES = {
    wire.K_SCHED_REQUEST: ("client-1", _scheduling_submissions),
    wire.K_ACC_REQUEST: ("client-1", NetworkedSession.run_accusation_phase),
    wire.K_EVIDENCE_REQUEST: ("server-0", lambda session: session.trace_witness(0, 0)),
    wire.K_DISCLOSURE_REQUEST: (
        "server-1",
        lambda session: session.trace_witness(0, 0),
    ),
    wire.K_REBUT_REQUEST: ("client-2", _rebuttal),
    wire.K_FLIGHT: ("client-3", NetworkedSession.flight_dumps),
}


class TestControlFrameMutations:
    """A mutation walk over the control table: every kind a node sends the
    coordinator, one field dropped, retyped, truncated or appended, sent
    by a member of the right role for the begun round ahead of (for a
    reply, instead of) its honest frame.  Nothing but a ``DissentError``
    may leave the coordinator, and after a mutated inventory status the
    next honest round completes with a certificate.  Before every barrier
    frame was decoded once, in ``_take``, a one-field status from server-0
    made ``run_round`` raise a bare ``TypeError`` with the round begun on
    every server, and a truncated status reply a bare ``ValueError``."""

    @staticmethod
    def _walk(
        mutations, member, trigger, forge, after=None, drive=NetworkedSession.run_round
    ):
        """``drive`` the session once per mutation with ``member``'s next
        ``trigger`` frame handed to ``forge(session, mutate)``; returns
        each mutation's outcome (``"ok"`` or the error's class name)."""
        with NetworkedSession.build(
            num_servers=2, num_clients=4, seed=7, mode="loopback"
        ) as session:
            session.setup()
            assert session.run_round().certificate is not None
            node = session._node_objects[member]
            outcomes = {}
            for label, mutate in mutations.items():
                filed = len(session._node_errors)
                _intercept(node, trigger, forge(session, mutate))
                try:
                    drive(session)
                    outcomes[label] = "ok"
                except DissentError as exc:
                    outcomes[label] = type(exc).__name__
                if after is not None:
                    after(session, label, session._node_errors[filed:])
            return outcomes

    @staticmethod
    def _filed(member):
        """Check that the forged frame was filed as ``member``'s error."""

        def after(session, label, errors):
            assert f"{member}: WireDecodeError" in "".join(errors), (label, errors)

        return after

    @pytest.mark.parametrize(
        "kind, arity, member",
        [
            (K_INVENTORY_STATUS, 3, "server-0"),
            (K_ROUND_DONE, 5, "server-1"),
            (K_ROUND_APPLIED, 1, "client-2"),
        ],
    )
    def test_barrier_frames(self, kind, arity, member):
        def forge(session, mutate):
            async def ahead(send, seq, body):
                await send(kind, seq, mutate(body))
                await send(kind, seq, body)

            return ahead

        filed = self._filed(member)

        def after(session, label, errors):
            filed(session, label, errors)
            if kind == K_INVENTORY_STATUS:
                assert session.run_round().certificate is not None, label

        outcomes = self._walk(_mutations(arity), member, kind, forge, after)
        assert len(outcomes) == 2 * arity + 2 + (arity > 1)
        assert set(outcomes.values()) <= {"ok", "SessionTimeout"}, outcomes

    def test_node_errors(self):
        def forge(session, mutate):
            async def ahead(send, seq, body):
                await send(K_NODE_ERROR, 0, mutate(_ERROR_BODY))
                await send(K_INVENTORY_STATUS, seq, body)

            return ahead

        filed = self._filed("server-0")
        outcomes = self._walk(
            _mutations(2), "server-0", K_INVENTORY_STATUS, forge, filed
        )
        assert set(outcomes.values()) == {"ok"}, outcomes

    def test_hellos(self):
        """A hello on a second link under a member's own name: the hub
        refuses it and the member keeps the link it has."""
        member = "client-1"

        def forge(session, mutate):
            async def ahead(send, seq, body):
                group = session.definition.group
                hello = pack_fields(
                    group.name,
                    group.element_bytes,
                    session.definition.group_id(),
                    session.round_number,
                    0,
                )
                hub_side, node_side = loopback_pair()
                session._hub.spawn_attach(hub_side)
                await node_side.send(
                    wire.encode_routed(COORDINATOR, member, K_HELLO, 0, mutate(hello))
                )
                await send(K_ROUND_APPLIED, seq, body)

            return ahead

        links = []

        def after(session, label, errors):
            links.append(session._hub.transports[member])
            assert links[-1] is links[0], label

        outcomes = self._walk(_mutations(5), member, K_ROUND_APPLIED, forge, after)
        assert set(outcomes.values()) == {"ok"}, outcomes

    @pytest.mark.parametrize("kind", [K_REPLY, K_REPLY_ERROR])
    def test_status_replies(self, kind):
        """The status reply, the one reply read as fields, and a reply
        error in its place, from the client asked."""

        def forge(session, mutate):
            async def instead(send, seq, body):
                await send(kind, seq, mutate(body if kind == K_REPLY else _ERROR_BODY))

            return instead

        outcomes = self._walk(
            _mutations(2),
            "client-3",
            K_REPLY,
            forge,
            drive=NetworkedSession.run_until_quiet,
        )
        assert set(outcomes.values()) == {"WireDecodeError"}, outcomes

    @pytest.mark.parametrize(
        "asked, member", [(kind, member) for kind, (member, _) in _REPLIES.items()]
    )
    def test_reply_bodies(self, asked, member):
        """Every other reply body the coordinator decodes, garbled, cut
        short or appended to by the member asked, in place of its reply:
        only a ``DissentError`` leaves the call that asked.  Before each
        owner decoded through ``unpack_typed``, a truncated cipher vector
        in reply to ``acc-request`` made ``run_accusation_phase`` raise a
        bare ``ValueError``, and a garbled ``flight`` reply made
        ``flight_dumps`` raise ``UnicodeDecodeError``."""
        _, drive = _REPLIES[asked]

        def forge(session, mutate):
            async def instead(send, seq, body):
                await send(K_REPLY, seq, mutate(body))

            return instead

        if asked == wire.K_FLIGHT:
            mutations = {
                "garble": lambda body: b"\xff\xfe" + body,
                "truncate": lambda body: body[:-2],
                "append": lambda body: body + b"{",
            }
        else:
            group = group_by_name(resolve_group_name())
            arity = {
                # The vector's width: one ciphertext per field.
                wire.K_ACC_REQUEST: message_vector_width(
                    group, accusation_max_bytes(group)
                ),
                wire.K_REBUT_REQUEST: 5,
            }.get(asked, 7)  # an envelope's seven fields
            mutations = _mutations(arity)
        outcomes = self._walk(mutations, member, K_REPLY, forge, drive=drive)
        if asked == wire.K_ACC_REQUEST:
            # A vector with elements dropped is well formed and too narrow.
            assert set(outcomes.values()) <= {"WireDecodeError", "ShuffleError"}
        else:
            assert set(outcomes.values()) == {"WireDecodeError"}, outcomes


class TestControlTable:
    """``wire.CONTROL_SPECS`` is the one declaration of every packed-field
    control body; everything else a node handles has a codec of its own."""

    #: Kinds whose body has its own codec (or none): an envelope, a
    #: round-done report, a node checkpoint, flight NDJSON, a reply to
    #: whatever was asked, a shutdown; the JSON replies are declared in
    #: ``wire.JSON_REPLIES``.
    OWN_CODEC = {
        wire.K_ENVELOPE,
        K_ROUND_DONE,
        wire.K_SNAPSHOT,
        wire.K_RESTORE,
        wire.K_FLIGHT,
        K_REPLY,
        wire.K_SHUTDOWN,
    }

    def test_every_declared_kind_round_trips(self):
        sample = {"i": 7, "b": b"\x00bytes", "s": "text"}
        for kind, spec in wire.CONTROL_SPECS.items():
            fields = [sample[code] for code in spec.rstrip("*")]
            if spec.endswith("*"):
                fields.append(fields[-1])
            body = wire.encode_control(kind, *fields)
            assert body == pack_fields(*fields)
            assert wire.decode_control(kind, body) == fields
            retyped = [_RETYPED[type(fields[0])](fields[0]), *fields[1:]]
            with pytest.raises(WireDecodeError):
                wire.encode_control(kind, *retyped)
            with pytest.raises(WireDecodeError):
                wire.decode_control(kind, pack_fields(*retyped))

    def test_every_kind_a_node_handles_is_declared_or_has_its_own_codec(self):
        import inspect
        import re

        from repro.net import node

        handled = set(re.findall(r"kind == (K_[A-Z_]+)", inspect.getsource(node)))
        assert len(handled) > 20
        declared = wire.CONTROL_SPECS.keys() | wire.JSON_REPLIES.keys()
        for name in handled:
            kind = getattr(wire, name)
            assert (kind in declared) != (kind in self.OWN_CODEC), name
        every = {v for k, v in vars(wire).items() if k.startswith("K_")}
        assert every == declared | self.OWN_CODEC

