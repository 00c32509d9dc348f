"""Bounded state per member: what a long-lived group keeps between rounds.

A round's output is a broadcast every client applies, so no member needs
a round's bytes once the protocol is done with them.  These tests pin
that down without reading RSS:

* :class:`TestRetainedBytesPlateau` walks the bytes each member still
  references after every round of a steady workload — a client's whole
  state, a server's whole state with its archive — and asserts that
  round 12 holds what round 4 held.  The one log that grows is the
  session's delivery log, and it grows by exactly the bytes delivered.
  (The hub's outboxes have their own plateau test,
  ``tests/test_net_transport.py::TestOutboxPlateau``.)
* :class:`TestNoLoopHoldsAFrame` looks into the suspended receive loops
  of a networked session — every node's ``run``, the hub's ``attach`` per
  link and the coordinator's ``_pump`` — and asserts that none still
  binds the frame it last handled while it waits for the next one.
* :class:`TestTableCensus` lists the fixed-base tables a process pins
  (what each member walks every round, ``tests/test_ec_kernels.py::TestTableResidency``
  sizes each), asserts that rounds, a second build and a second set-up
  of one seed build none, that key agreement happens in set-up and a
  restart from a checkpoint repeats none of it, and that a dropped or
  expelled member's pins are released; :class:`TestPairStatesAtTeardown`,
  that a dropped member's pad states go with it.
"""

import asyncio
import collections
import gc
import types
from collections import deque

import pytest

from repro.core import DissentSession, Policy
from repro.crypto import dh, prng
from repro.crypto.ec25519 import ec_group
from repro.crypto.groups import group_by_name
from repro.net.runner import NetworkedSession
from repro.net.wire import RoutedFrame
from repro.persist import restore_session, save_session
from tests.helpers import crypto_counters

_ATOMS = (
    int,
    float,
    str,
    bool,
    type(None),
    type,
    types.ModuleType,
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
)


def retained_bytes(root) -> int:
    """Bytes of every distinct bytes-like object reachable from ``root``
    through containers and instance attributes (each object counted once)."""
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, memoryview):
            total += obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return total


def _members(session):
    """The live client and server objects behind a loopback session."""
    node = session._node_objects
    return (
        [node[session.node_name("client", i)].client for i in range(4)],
        [node[session.node_name("server", j)].server for j in range(3)],
    )


class TestRetainedBytesPlateau:
    def test_members_hold_the_same_at_round_12_as_at_round_4(self):
        """4 clients each post 2,000 bytes every round.  Slots reach their
        steady size by round 2, and with ``archive_rounds`` = 2 every
        archived round from round 4 on is a steady one; from then on no
        client or server holds a byte more, and the session log is the
        only thing that grows."""
        policy = Policy(archive_rounds=2)
        with NetworkedSession.build(
            num_servers=3,
            num_clients=4,
            seed=11,
            mode="loopback",
            group_name="test-256",
            policy=policy,
        ) as session:
            session.setup()
            clients, servers = _members(session)
            held = {}
            log_bytes = retained_bytes(session.delivered)
            for round_index in range(1, 13):
                for i in range(4):
                    session.post(i, bytes([64 + round_index]) * 2000)
                record = session.run_round()
                assert record.certificate is not None
                for server in servers:
                    assert len(server.archive) <= policy.archive_rounds
                held[round_index] = (
                    [retained_bytes(client) for client in clients],
                    [retained_bytes(server) for server in servers],
                )
                delivered = [
                    message
                    for r, _, message in session.delivered
                    if r == record.round_number
                ]
                grown = retained_bytes(session.delivered) - log_bytes
                assert grown == sum(map(len, delivered))
                log_bytes += grown
                if round_index >= 4:
                    assert len(delivered) == 4  # one post per client a round
        assert held[12] == held[4]


class TestBarrierBuckets:
    def test_forged_barrier_frames_leave_no_bucket_between_rounds(self):
        """The coordinator keeps a node's unasked frames only of the three
        barrier kinds and only for the begun round, and drops them when
        the round is over.  Client 1 sends 3 late ``round-applied`` frames
        and one of an undeclared kind, client 2 200 ``round-applied``
        frames for rounds 1000-1199; after the next honest round no bucket
        is left.  When every frame was bucketed under its kind and first
        field and only a drained bucket was dropped, this left 204."""
        from repro.net.node import COORDINATOR, K_ROUND_APPLIED
        from repro.util.serialization import pack_fields

        with NetworkedSession.build(
            num_servers=2, num_clients=4, seed=7, mode="loopback"
        ) as session:
            session.setup()
            for _ in range(3):
                assert session.run_round().certificate is not None
            late, early = (session._node_objects[f"client-{i}"] for i in (1, 2))

            async def forge():
                for r in range(3):
                    await late._send(COORDINATOR, K_ROUND_APPLIED, 0, pack_fields(r))
                await late._send(COORDINATOR, "undeclared", 0, pack_fields(5))
                for r in range(1000, 1200):
                    await early._send(COORDINATOR, K_ROUND_APPLIED, 0, pack_fields(r))

            session._call(forge())
            assert session.run_round().certificate is not None
            assert len(session._buckets) == 0
            assert session._node_errors == []


class TestNodeErrorLog:
    def test_junk_node_errors_keep_a_tail_and_a_fresh_one_still_ends_a_barrier(
        self,
    ):
        """Any member can send node errors, so the coordinator keeps the
        newest ``NODE_ERRORS_KEPT`` and counts every one.  500 junk frames
        from client 1 left 500 entries when every error was kept.  A barrier
        compares the count, so once the tail is full (its length no longer
        grows) a fresh error still ends a waiting barrier early."""
        from repro.errors import SessionTimeout
        from repro.net.node import COORDINATOR, K_NODE_ERROR, K_ROUND_APPLIED
        from repro.net.runner import NODE_ERRORS_KEPT
        from repro.util.serialization import pack_fields

        with NetworkedSession.build(
            num_servers=2, num_clients=3, seed=7, mode="loopback", timeout=8.0
        ) as session:
            session.setup()
            junk = session._node_objects["client-1"]

            async def send_error(message):
                body = pack_fields("ProtocolError", message)
                await junk._send(COORDINATOR, K_NODE_ERROR, 0, body)

            async def flood():
                for n in range(500):
                    await send_error(f"junk {n}")
                while session._node_error_count < 500:
                    await asyncio.sleep(0.01)

            session._call(flood())
            assert session._node_error_count == 500
            assert len(session._node_errors) == NODE_ERRORS_KEPT
            assert session._node_errors[-1].endswith("junk 499")

            async def barrier():
                loop = asyncio.get_running_loop()
                session._buckets[K_ROUND_APPLIED, 999] = asyncio.Queue()
                waiting = asyncio.ensure_future(
                    session._gather(K_ROUND_APPLIED, 999, 1, ["client-0"])
                )
                await asyncio.sleep(0.1)
                started = loop.time()
                await send_error("fresh")
                with pytest.raises(SessionTimeout, match="fresh"):
                    await waiting
                del session._buckets[K_ROUND_APPLIED, 999]
                return loop.time() - started

            assert session._call(barrier()) < session.timeout / 4
            assert len(session._node_errors) == NODE_ERRORS_KEPT


#: The receive loops and the module each lives in.
_LOOPS = {("run", "node.py"), ("attach", "runner.py"), ("_pump", "runner.py")}


def _loop_frames():
    """Every suspended receive-loop frame among the loop's tasks."""
    frames = []
    for task in asyncio.all_tasks():
        coroutine = task.get_coro()
        while coroutine is not None and hasattr(coroutine, "cr_frame"):
            frame = coroutine.cr_frame
            if frame is not None:
                where = frame.f_code.co_filename.rsplit("/", 1)[-1]
                if (frame.f_code.co_name, where) in _LOOPS:
                    frames.append(frame)
            coroutine = coroutine.cr_await
    return frames


class TestNoLoopHoldsAFrame:
    @pytest.mark.parametrize("mode", ["loopback", "tcp"])
    def test_waiting_loops_bind_no_handled_frame(self, mode):
        """A frame lives only in the call that handles it.  A loop that
        kept its last ``payload`` or decoded frame in a local would pin
        one frame per link until the next one arrived — on bulk rounds,
        ~500 KiB each."""
        # No group named: DISSENT_GROUP_BACKEND picks it (CI's chaos job
        # runs this under modp1536 and ec25519).
        with NetworkedSession.build(
            num_servers=3, num_clients=4, seed=11, mode=mode
        ) as session:
            session.setup()
            for i in range(4):
                session.post(i, b"x" * 2000)
            for _ in range(3):
                assert session.run_round().certificate is not None

            async def inspect():
                return [
                    (frame.f_code.co_name, name, type(value).__name__)
                    for frame in _loop_frames()
                    for name, value in frame.f_locals.items()
                    if isinstance(value, (bytes, bytearray, memoryview, RoutedFrame))
                ], sorted(frame.f_code.co_name for frame in _loop_frames())

            held, loops = session._call(inspect())
        assert held == []
        # Every loop was looked at: 7 nodes (a server's run awaits the
        # shared one), one attach per link, one pump.
        assert loops == sorted(["_pump"] + ["attach"] * 7 + ["run"] * 10)


def _added_pins(group, baseline):
    """Claims on each base beyond ``baseline`` (other live sessions' pins)."""
    pinned = group._residency.pinned()
    return {
        base: count - baseline.get(base, 0)
        for base, count in pinned.items()
        if count > baseline.get(base, 0)
    }


def _key_agreement(monkeypatch, read) -> collections.Counter:
    """Count the DH secrets derived from here on and the fixed-base walks
    they make (``read`` is :func:`crypto_counters`')."""
    census = collections.Counter()
    derive = dh.shared_secret

    def counted(own, peer):
        before = read("fixed_base.exps")
        secret = derive(own, peer)
        census["secrets"] += 1
        census["walks"] += read("fixed_base.exps") - before
        return secret

    monkeypatch.setattr(dh, "shared_secret", counted)
    return census


class TestTableCensus:
    def test_set_up_tables_every_roster_key_and_rounds_table_none(self):
        """A server pins its upstream clients' keys and every server's; a
        client and the coordinator every server's.  Set-up's six shuffle keys are pinned for
        the key shuffle only: afterwards no shuffle key is pinned, and
        their tables are the first a new pin may evict.  Rounds walk the
        tables the pins hold and build none."""
        gc.collect()
        group = ec_group()
        baseline = group._residency.pinned()
        session = DissentSession.build(
            "ec25519", num_servers=3, num_clients=4, seed=41
        )
        session.setup()
        definition = session.definition
        servers = [key.y for key in definition.server_keys]
        clients = [key.y for key in definition.client_keys]
        # Each server key: three servers, four clients and the
        # coordinator; each client key: its upstream server.
        assert _added_pins(group, baseline) == {
            **dict.fromkeys(servers, 8),
            **dict.fromkeys(clients, 1),
        }
        tabled = set(group._residency.tables)
        assert {*servers, *clients} <= tabled
        with crypto_counters() as read:
            for round_index in range(8):
                for i in range(4):
                    session.post(i, b"census %d" % round_index)
                session.run_round()
            assert read("fixed_base.table_builds") == 0
        assert len(session.delivered) == 32
        assert set(group._residency.tables) - tabled == set()

    @pytest.mark.parametrize("backend", ["test-256", "ec25519"])
    def test_a_second_build_of_one_seed_walks_every_dh_secret(
        self, backend, monkeypatch
    ):
        """While the first session lives its members' pins hold every
        roster key's table, so the second builds none.  Its build only
        generates keys; its set-up derives the 2·N·M DH secrets, each a
        walk of its peer key's table."""
        gc.collect()
        servers, clients = 3, 6
        first = DissentSession.build(backend, servers, clients, seed=43)
        with crypto_counters() as read:
            census = _key_agreement(monkeypatch, read)
            second = DissentSession.build(backend, servers, clients, seed=43)
            assert read("fixed_base.table_builds") == 0
            # Key generation walks the generator's table once per key.
            assert read("fixed_base.exps") == servers + clients
            assert not census
            second.setup()
            edges = 2 * servers * clients
            assert census == {"secrets": edges, "walks": edges}
        assert second.definition == first.definition

    @pytest.mark.parametrize("backend", ["test-256", "ec25519"])
    def test_a_restore_does_no_key_agreement(self, backend, monkeypatch, tmp_path):
        """A restart repeats nothing set-up derived: building a session and
        restoring a set-up session's checkpoint into it walks the
        generator's table once per long-term key, builds no table, and
        derives no DH secret and no pseudonym public key."""
        gc.collect()
        servers, clients = 3, 6
        path = tmp_path / "session.ckpt"
        session = DissentSession.build(backend, servers, clients, seed=43)
        session.setup()
        session.post(1, b"across the restart")
        session.run_round()
        save_session(session, path)
        with crypto_counters() as read:
            census = _key_agreement(monkeypatch, read)
            fresh = DissentSession.build(backend, servers, clients, seed=43)
            restore_session(fresh, path)
            assert read("fixed_base.table_builds") == 0
            assert read("fixed_base.exps") == servers + clients
            assert not census
        assert fresh.snapshot_state() == session.snapshot_state()
        assert [c.pseudonym for c in fresh.clients] == [
            c.pseudonym for c in session.clients
        ]
        restored, continued = fresh.run_round(), session.run_round()
        assert restored.output.cleartext == continued.output.cleartext

    def test_a_networked_restore_does_no_key_agreement(self, monkeypatch, tmp_path):
        """Over loopback the nodes take the same member sections: reading
        the checkpoint walks once per long-term key, and starting the nodes
        and handing each its section walks nothing more."""
        gc.collect()
        servers, clients = 2, 3
        path = tmp_path / "net.ckpt"
        with NetworkedSession.build(
            "test-256", servers, clients, seed=31, mode="loopback"
        ) as session:
            session.setup()
            session.run_round()
            session.checkpoint(path)
            continued = session.run_round()
        with crypto_counters() as read:
            census = _key_agreement(monkeypatch, read)
            with NetworkedSession.restore(path) as restored:
                restored._ensure_started()
                assert read("fixed_base.exps") == servers + clients
                assert not census
                record = restored.run_round()
        assert record.output.cleartext == continued.output.cleartext

    @pytest.mark.parametrize("mode", ["inproc", "tcp"])
    def test_a_second_set_up_of_one_seed_builds_no_table(self, mode):
        """The same seed draws the same mix keys, whose released tables
        are still resident."""
        gc.collect()

        def build():
            if mode == "tcp":
                return NetworkedSession.build(
                    "ec25519", num_servers=3, num_clients=4, seed=47, mode="tcp"
                )
            return DissentSession.build(
                "ec25519", num_servers=3, num_clients=4, seed=47
            )

        first = build()
        first.setup()
        with crypto_counters() as read:
            second = build()
            second.setup()
            assert read("fixed_base.table_builds") == 0
        for session in (first, second):
            getattr(session, "close", lambda: None)()

    @pytest.mark.parametrize("backend", ["test-256", "ec25519"])
    def test_dropped_sessions_release_their_pins(self, backend):
        """Dead sessions cannot fill the capacity: each member's pin dies
        with it."""
        gc.collect()
        group = group_by_name(backend)
        baseline = group._residency.pinned()
        for seed in range(3):
            session = DissentSession.build(backend, 2, 4, seed=60 + seed)
            session.setup()
            assert _added_pins(group, baseline)
            del session
            gc.collect()
            assert group._residency.pinned() == baseline

    def test_an_expelled_client_key_is_released(self):
        gc.collect()
        group = ec_group()
        baseline = group._residency.pinned()
        session = DissentSession.build("ec25519", 3, 4, seed=49)
        expelled = session.definition.client_keys[1].y
        assert _added_pins(group, baseline)[expelled] == 1
        session.expel(1)
        assert expelled not in _added_pins(group, baseline)
        assert group.has_table(expelled)  # until a new pin needs the room


class TestPairStatesAtTeardown:
    def test_a_dropped_session_forgets_its_pad_states_and_no_other(self):
        gc.collect()
        kept = DissentSession.build("test-256", 2, 3, seed=51)
        dropped = DissentSession.build("test-256", 2, 3, seed=52)
        for built in (kept, dropped):
            built.setup()
            built.run_round()
        del built

        def secrets(session):
            return {s for client in session.clients for s in client.secrets}

        ours, theirs = secrets(kept), secrets(dropped)
        assert not ours & theirs
        assert (ours | theirs) <= set(prng._pair_states)
        del dropped
        gc.collect()
        assert not theirs & set(prng._pair_states)
        assert ours <= set(prng._pair_states)
        kept.run_round()
