"""Durable checkpoints: file format, audit chain, section codecs.

Every restore parity test goes through real serialization — the state is
checkpointed to a file, read back, and decoded into a *freshly built*
session — so in-memory aliasing can never mask a codec gap.  The
round-trip property must hold on both the modp and the ristretto255
group backends, including scheduler and PRNG state.
"""

import collections
import hashlib
import random

import pytest

from repro.consensus.certificate import EquivocationProof, RoundCertificate
from repro.core import DissentSession, Policy
from repro.core.accusation import Accusation
from repro.core.adversary import DisruptorClient
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.crypto.schnorr import Signature
from repro.errors import CheckpointError
from repro.net.node import ClientNode, ServerNode
from repro.net.runner import NetworkedSession
from repro.net.transport import loopback_pair
from repro.persist import (
    CHECKPOINT_VERSION,
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
from repro.util.serialization import pack_fields, unpack_fields

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
        payload = pack_fields(1, 2, 3, "barrier")
        written = write_checkpoint(path, payload, kind="session")
        assert written == path.stat().st_size
        assert read_checkpoint(path, kind="session") == payload

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, pack_fields(4), kind="session")
        data = bytearray(path.read_bytes())
        data[-1] = 5  # the payload is the file's last field
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_version_and_kind_are_enforced(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, b"", kind="node")
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, kind="session")
        magic, version, kind, digest, payload = unpack_fields(path.read_bytes())
        assert (version, kind) == (CHECKPOINT_VERSION, "node")
        path.write_bytes(pack_fields(magic, 99, kind, digest, payload))
        with pytest.raises(CheckpointError, match="version 99"):
            read_checkpoint(path)

    def test_a_json_checkpoint_is_refused(self, tmp_path):
        """Version 9 and older were JSON documents; no reader for them is
        kept, and one is refused with a typed error."""
        path = tmp_path / "old.ckpt"
        path.write_text('{"kind":"session","payload":{},"sha256":"","version":9}')
        with pytest.raises(
            CheckpointError, match=f"not a version-{CHECKPOINT_VERSION} checkpoint"
        ):
            read_checkpoint(path)

    def test_atomic_replace_keeps_old_on_unencodable(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, pack_fields(1), kind="session")
        with pytest.raises(CheckpointError, match="payload"):
            write_checkpoint(path, {"bad": object()}, kind="session")
        # The original checkpoint survives an aborted overwrite.
        assert read_checkpoint(path) == pack_fields(1)

    def test_a_failed_write_leaves_the_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, pack_fields(1), kind="session")

        def failing_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.persist.checkpoint.os.fsync", failing_fsync)
        with pytest.raises(CheckpointError, match="No space left"):
            write_checkpoint(path, pack_fields(2), kind="session")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]
        assert read_checkpoint(path) == pack_fields(1)

    def test_checkpoint_metrics(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        write_checkpoint(tmp_path / "m.ckpt", b"a", registry=registry)
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
        import json

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

    def test_a_reopened_log_cuts_a_torn_line_and_appends_after_it(self, tmp_path):
        """A crash tore the last line: reopening the log drops it, so the
        next entry starts its own line and the whole chain still reads."""
        path = tmp_path / "audit.ndjson"
        log = AuditLog(path)
        log.append("abandon", round=0)
        log.append("abandon", round=1)
        whole = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b'{"index": 2, "event": "abandon"')  # no newline
        reopened = AuditLog(path)
        assert path.read_bytes() == whole
        reopened.append("expulsion", client=3)
        entries = read_audit_log(path)
        assert [e["event"] for e in entries] == ["abandon", "abandon", "expulsion"]
        assert entries == reopened.entries

    @pytest.mark.parametrize("line", [b"[1,2]", b"7", b'"entry"', b"null"])
    def test_a_line_that_is_no_object_is_a_checkpoint_error(self, tmp_path, line):
        path = tmp_path / "audit.ndjson"
        AuditLog(path).append("abandon", round=0)
        with open(path, "ab") as handle:
            handle.write(line + b"\n")
        with pytest.raises(CheckpointError, match="line 2 is not an object"):
            read_audit_log(path)
        with pytest.raises(CheckpointError, match="not an object"):
            AuditLog(path)

    def test_unknown_event_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="unknown audit event"):
            AuditLog(tmp_path / "a.ndjson").append("surprise")


class TestStateCodecs:
    def test_rng_state_round_trips_as_one_field_of_words(self):
        rng = random.Random(123)
        rng.random()
        encoded = encode_rng_state(rng.getstate())
        assert type(encoded) is bytes and len(encoded) == 4 * 625
        clone = random.Random()
        clone.setstate(decode_rng_state(encoded))
        assert [clone.random() for _ in range(8)] == [
            rng.random() for _ in range(8)
        ]

    def test_rng_position_out_of_range_is_refused(self):
        words = bytearray(encode_rng_state(random.Random(1).getstate()))
        words[-4:] = (625).to_bytes(4, "little")
        with pytest.raises(CheckpointError, match="position"):
            decode_rng_state(bytes(words))

    def test_scheduler_round_trips(self):
        session = built_session()
        session.post(0, b"fill the scheduler with demand")
        session.run_rounds(2)
        scheduler = session.servers[0].scheduler
        encoded = encode_scheduler(scheduler)
        rebuilt = decode_scheduler(encoded, session.definition.policy)
        assert rebuilt == scheduler
        assert encode_scheduler(rebuilt) == encoded


def _raise_bug(*args, **kwargs):
    raise RuntimeError("a bug in the callee, not a malformed field")


def _record(session, output=b"", certificate=b""):
    data = pack_fields(0, "completed", 1, output, 0, certificate)
    codec.decode_record(session.definition.group, data)


def _equivocation_proof(session, value):
    fields = unpack_fields(codec.encode_coordinator_state(session))
    fields[6] = pack_fields(value)  # equivocation_proofs
    codec.decode_coordinator_state(session, pack_fields(*fields))


def _archived_envelope(session, value):
    envelopes = pack_fields(pack_fields(0, value))
    data = pack_fields(0, pack_fields(8), b"", b"", envelopes, b"", 1)
    codec.decode_archive(session.definition.group, data)


def _pending_accusation(session, value):
    client = session.clients[0]
    fields = unpack_fields(codec.encode_client_state(client))
    fields[9] = value  # pending_accusation
    codec.decode_client_state(client, pack_fields(*fields))


#: Each codec decoder that wraps a callee, the callee it wraps, and a
#: field that reaches it.
CODEC_DECODERS = [
    pytest.param(
        lambda session, value: _record(session, output=value),
        (Signature, "from_bytes"),
        pack_fields(0, b"", 1, b"signature"),
        id="round-output",
    ),
    pytest.param(
        lambda session, value: _record(session, certificate=value),
        (RoundCertificate, "from_wire"),
        b"\x00",
        id="certificate",
    ),
    pytest.param(
        _equivocation_proof,
        (EquivocationProof, "from_wire"),
        b"\x00",
        id="equivocation",
    ),
    pytest.param(
        _archived_envelope, (codec, "decode_envelope"), b"\x00", id="archive"
    ),
    pytest.param(
        _pending_accusation, (Accusation, "from_bytes"), b"\x00", id="accusation"
    ),
]


class TestDecodersNameTheirErrors:
    """A malformed field is a CheckpointError; a bug underneath propagates.

    Each decoder turns the typed errors of the callee it feeds into a
    CheckpointError, nothing else — a callee's ``RuntimeError`` must not
    read as a corrupt checkpoint.
    """

    @pytest.fixture(scope="class")
    def session(self):
        return built_session()

    @pytest.mark.parametrize("decode, callee, reaching", CODEC_DECODERS)
    @pytest.mark.parametrize(
        "value", [b"zz", 7, b"\x00"], ids=["garbage", "wrong-type", "truncated"]
    )
    def test_malformed_field_is_a_checkpoint_error(
        self, session, decode, callee, reaching, value
    ):
        with pytest.raises(CheckpointError):
            decode(session, value)

    @pytest.mark.parametrize("decode, callee, reaching", CODEC_DECODERS)
    def test_a_bug_underneath_propagates(
        self, session, decode, callee, reaching, monkeypatch
    ):
        monkeypatch.setattr(*callee, _raise_bug)
        with pytest.raises(RuntimeError, match="a bug in the callee"):
            decode(session, reaching)


_TAGS = b"BIS"
#: A retyped field keeps its body under the next tag.
_RETYPED = {b"B": b"I", b"I": b"S", b"S": b"B"}


def _fields(data: bytes):
    """``data`` as raw ``(tag, body)`` fields, or None unless it is a whole
    packed structure (so random bytes are rarely taken for one)."""
    fields, offset = [], 0
    while offset < len(data):
        end = offset + 5 + int.from_bytes(data[offset + 1 : offset + 5], "big")
        if data[offset] not in _TAGS or end > len(data) or offset + 5 > len(data):
            return None
        fields.append((data[offset : offset + 1], data[offset + 5 : end]))
        offset = end
    return fields or None


def _join(fields) -> bytes:
    return b"".join(tag + len(body).to_bytes(4, "big") + body for tag, body in fields)


def _mutations(data: bytes, path=(), depth=None):
    """``(path, mutated)`` for every field of a packed structure, nested
    ones included (to ``depth`` levels): the field dropped, retyped (its
    tag cycled B → I → S → B, body kept) and, when it has a body,
    truncated by its last byte.  Enclosing lengths are rewritten, so each
    mutation is a well-framed structure with one field changed."""
    fields = _fields(data)
    for i, (tag, body) in enumerate(fields):
        here = path + (i,)
        changes = [("drop", []), ("retype", [(_RETYPED[tag], body)])]
        if body:
            changes.append(("truncate", [(tag, body[:-1])]))
        for name, replacement in changes:
            yield here + (name,), _join(fields[:i] + replacement + fields[i + 1 :])
        if tag == b"B" and _fields(body) and (depth is None or depth > 1):
            inner = _mutations(body, here, None if depth is None else depth - 1)
            for inner_path, mutated in inner:
                yield inner_path, _join(fields[:i] + [(tag, mutated)] + fields[i + 1 :])


def _hybrid_session():
    session = DissentSession.build("test-256", 2, 3, Policy(dcnet_mode="hybrid"), seed=5)
    session.setup()
    session.post(0, b"a post")
    session.post(1, b"another")
    session.run_rounds(3)
    return session


def _session_field(payload: bytes, *names) -> bytes:
    """A nested field of a ``session`` payload by section field names,
    walked through the sections the declarations nest."""
    section, value = codec.SECTIONS["session"], payload
    for name in names:
        if isinstance(name, int):
            value = unpack_fields(value)[name]
            continue
        value = unpack_fields(value)[list(section.fields).index(name)]
        nested = section.fields[name][3]
        if nested and nested.rstrip("*") in codec.SECTIONS:
            section = codec.SECTIONS[nested.rstrip("*")]
    return value


class TestMutatedCheckpoints:
    def test_every_malformed_field_is_a_checkpoint_error(self):
        """Decoding is total.  Each packed field of a small hybrid
        checkpoint (sent history included), at every depth, is dropped,
        retyped or truncated; the restore either refuses it with a
        CheckpointError or takes it as a well-typed value, which then
        re-encodes to exactly the mutated bytes — never a bare TypeError,
        never a coerced field."""
        session = _hybrid_session()
        snapshot = session.snapshot_state()
        assert any(
            _session_field(snapshot, "clients", i, "sent_history") for i in range(3)
        )
        # The walk reaches the history's delivered rows and the schedule.
        history = _session_field(snapshot, "coordinator", "history")
        assert any(unpack_fields(entry)[1] for entry in unpack_fields(history))
        refused, accepted = collections.Counter(), collections.Counter()
        for path, mutated in _mutations(snapshot):
            try:
                session.restore_state(mutated)
            except CheckpointError:
                refused[path[:2]] += 1
                continue
            accepted[path[-1]] += 1
            # The history (coordinator field 1) and its head (field 2) are
            # checked whole: no change to either is taken.
            assert path[:2] not in ((0, 1), (0, 2)), path
            assert session.snapshot_state() == mutated, path
        assert sum(refused.values()) > 800
        # Drops from lists and truncated payload bytes are well-typed
        # values; the walk sees both kinds of answer.
        assert accepted["drop"] and accepted["truncate"]
        # Every field of the history, at every depth (its entries, their
        # records and delivered rows), and of its head is refused, and the
        # delivery schedule (field 3) is decoded as strictly as the rest;
        # the walk is seeded, so these are its counts.
        assert refused[0, 1] >= 241 and refused[0, 2] >= 3 and refused[0, 3] >= 27
        session.restore_state(snapshot)
        assert session.snapshot_state() == snapshot

    @pytest.mark.parametrize(
        "role, change",
        [
            ("clients", lambda secrets: secrets[:-1]),
            ("servers", lambda secrets: secrets + secrets[:1]),
            ("clients", lambda secrets: [secrets[0][:-1], *secrets[1:]]),
        ],
        ids=["a-client-short-of-one", "a-server-with-one-too-many", "31-bytes"],
    )
    def test_pair_secrets_are_one_per_peer_of_32_bytes(self, role, change):
        """A member section holds no pair secret (before set-up) or one
        32-byte secret per peer: M for a client, N for a server.  Another
        count or width is refused, where the generic walk would take a
        shortened list or secret as a well-typed value.  Nothing of a
        refused checkpoint is applied."""
        session = built_session()
        snapshot = session.snapshot_state()
        coordinator, servers, clients = unpack_fields(snapshot)
        sections = {"servers": servers, "clients": clients}
        members = unpack_fields(sections[role])
        fields = unpack_fields(members[0])
        fields[-1] = pack_fields(*change(unpack_fields(fields[-1])))  # _secrets
        members[0] = pack_fields(*fields)
        sections[role] = pack_fields(*members)
        mutated = pack_fields(coordinator, sections["servers"], sections["clients"])
        with pytest.raises(CheckpointError, match="pair secret"):
            session.restore_state(mutated)
        assert session.snapshot_state() == snapshot

    def test_flipped_bytes_and_truncated_files(self, tmp_path):
        """Any byte of the file flipped, or the file cut short: the reader
        raises CheckpointError or restores a session that re-encodes to
        the file's payload — never another exception.  A flip in the
        payload behind a fresh digest reaches the decoders themselves."""
        session = _hybrid_session()
        snapshot = session.snapshot_state()
        path = tmp_path / "h.ckpt"
        save_session(session, path)
        data = path.read_bytes()
        rng = random.Random(2012)
        outcomes = collections.Counter()

        def restore(raw: bytes, reseal: bool) -> None:
            if reseal:
                write_checkpoint(path, raw, kind="session")
            else:
                path.write_bytes(raw)
            try:
                restore_session(session, path)
            except CheckpointError:
                outcomes["refused", reseal] += 1
                return
            outcomes["restored", reseal] += 1
            assert session.snapshot_state() == read_checkpoint(path)

        for _ in range(150):
            at = rng.randrange(len(data))
            restore(data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1 :], False)
            at = rng.randrange(len(snapshot))
            flip = bytes([snapshot[at] ^ rng.randrange(1, 256)])
            restore(snapshot[:at] + flip + snapshot[at + 1 :], True)
        for at in sorted(rng.sample(range(len(data)), 40)):
            restore(data[:at], False)
        # The digest refuses every flip and cut of the file as written.
        assert outcomes["refused", False] == 190
        assert outcomes["refused", True] > 0 and outcomes["restored", True] > 0
        session.restore_state(snapshot)
        assert session.snapshot_state() == snapshot


@pytest.fixture(scope="module")
def net_checkpoint(tmp_path_factory):
    """A networked checkpoint of a blame run cut at a round barrier."""
    path = tmp_path_factory.mktemp("net") / "net.ckpt"
    with NetworkedSession.build(
        "test-256", 2, 3, seed=31, mode="loopback",
        client_factories={2: (DisruptorClient, {})},
    ) as session:  # fmt: skip
        session.setup()
        session.post(0, b"a post")
        session.post(1, b"another")
        for _ in range(3):
            session.run_round()
        session.checkpoint(path)
    return path


class TestMutatedNetworkedCheckpoints:
    def test_every_malformed_net_session_field_is_a_checkpoint_error(
        self, net_checkpoint, tmp_path
    ):
        """The payload's fields and each item of its key, seed and node
        lists dropped, retyped or truncated: ``NetworkedSession.restore``
        refuses with a CheckpointError, or the decoded checkpoint
        re-encodes to exactly the mutated bytes."""
        payload = read_checkpoint(net_checkpoint, kind="net-session")
        path = tmp_path / "mutated.ckpt"
        refused = collections.Counter()
        for field_path, mutated in _mutations(payload, depth=2):
            write_checkpoint(path, mutated, kind="net-session")
            try:
                NetworkedSession.restore(path).close()
            except CheckpointError:
                refused[field_path[0]] += 1
                continue
            state = codec.decode_net_session(mutated)
            assert codec.encode_net_session(state) == mutated, field_path
        # Every top-level field can be refused, dropped first of all.
        assert set(refused) == set(range(8))

    def test_every_malformed_node_field_is_a_checkpoint_error(self, net_checkpoint):
        """Each field of a server's and a client's node checkpoint, member
        sections included, dropped, retyped or truncated: the node refuses
        it with a CheckpointError or re-encodes exactly the mutated bytes
        (a counter of the wrong type is refused, not coerced)."""
        state = codec.decode_net_session(
            read_checkpoint(net_checkpoint, kind="net-session")
        )
        definition = state.definition
        _, transport = loopback_pair()
        nodes = [
            ServerNode(
                DissentServer(definition, 0, state.server_keys[0], random.Random(1)),
                transport,
            ),
            ClientNode(
                DissentClient(definition, 2, state.client_keys[2], random.Random(1)),
                transport,
            ),
        ]
        for node in nodes:
            section = state.nodes[node.name]
            refused = 0
            for path, mutated in _mutations(section):
                try:
                    codec.decode_node_state(node, mutated)
                except CheckpointError:
                    refused += 1
                    continue
                assert codec.encode_node_state(node) == mutated, (node.name, path)
            assert refused > 60
            codec.decode_node_state(node, section)
            assert codec.encode_node_state(node) == section
        # Restoring starts the next telemetry generation.
        generation = nodes[1].generation
        nodes[1]._restore(state.nodes[nodes[1].name])
        assert nodes[1].generation == generation + 1


def _blame_recover_shape():
    """The ``blame-recover-inproc-12`` benchmark's session after set-up and
    80 rounds: ec25519, 3 servers, 12 clients, seed 7; client 11 jams the
    slot of client 2, which posts a 96-byte message a round."""

    def factory(definition, index, key, rng):
        cls = DisruptorClient if index == definition.num_clients - 1 else DissentClient
        return cls(definition, index, key, rng)

    posts = random.Random(7)

    def post(session):
        tag = (2).to_bytes(2, "big") + session.round_number.to_bytes(4, "big")
        session.post(2, tag + posts.randbytes(96 - len(tag)))

    def build():
        return DissentSession.build("ec25519", 3, 12, seed=7, client_factory=factory)

    session = build()
    session.setup()
    post(session)
    session.run_rounds(3)
    session.clients[11].flips_per_round = 8
    session.clients[11].target_slot = session.clients[2].slot
    post(session)
    while not session.expelled:
        if session.run_round().shuffle_requested:
            session.run_accusation_phase()
    while session.round_number < 80:
        session.run_round()
        post(session)
    return session, build


class TestCheckpointSize:
    def test_a_blame_recover_checkpoint_is_at_most_195000_bytes(self, tmp_path):
        """Wire bytes stay bytes and an RNG state is 2,500 bytes.  The bound
        is 56% of the 348,825 bytes version 9's JSON took at this shape."""
        session, build = _blame_recover_shape()
        assert session.expelled == {11} and session.round_number == 80
        path = tmp_path / "blame.ckpt"
        assert save_session(session, path) <= 195_000
        fresh = build()
        restore_session(fresh, path)
        assert fresh.snapshot_state() == session.snapshot_state()


def _posting_session(rounds: int):
    """A test-256 session, 2 servers and 3 clients, after ``rounds``
    rounds; every fourth round one client posts."""
    session = built_session()
    for r in range(rounds):
        if r % 4 == 0:
            session.post(r % 3, b"post %d" % r)
        session.run_round()
    return session


def _with_history(snapshot: bytes, entries) -> bytes:
    """``snapshot`` with its history replaced by ``entries`` and the head
    recomputed to match them."""
    coordinator, servers, clients = unpack_fields(snapshot)
    fields = unpack_fields(coordinator)
    fields[1] = pack_fields(*entries)  # history
    fields[2] = hashlib.sha256(fields[1]).digest()  # head
    return pack_fields(pack_fields(*fields), servers, clients)


class TestHistory:
    @pytest.mark.parametrize("filed", [80, 800])
    def test_save_and_restore_do_not_grow_with_the_history(self, filed, monkeypatch):
        """A save encodes only the records filed since the previous save,
        none on an immediate re-save, and a restore decodes the last record
        and no delivered row: the same counts at 80 and at 800 records.
        Read afterwards, the restored history equals the original's."""
        session = _posting_session(filed)
        counts = collections.Counter()
        for name in ("encode_record", "decode_record", "decode_entry_rows"):

            def counting(*args, _real=getattr(codec, name), _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(codec, name, counting)
        session.snapshot_state()
        assert counts == {"encode_record": filed}
        counts.clear()
        session.run_rounds(2)
        session.snapshot_state()
        assert counts == {"encode_record": 2}
        counts.clear()
        snapshot = session.snapshot_state()
        assert not counts
        fresh = built_session()
        fresh.restore_state(snapshot)
        assert counts == {"decode_record": 1}
        counts.clear()
        assert fresh.snapshot_state() == snapshot
        fresh.run_round()
        session.run_round()
        assert fresh.snapshot_state() == session.snapshot_state()
        assert counts == {"encode_record": 2}
        assert len(fresh.records) == filed + 3
        assert fresh.records == session.records
        assert fresh.delivered == session.delivered
        assert counts["decode_record"] == filed + 1
        assert counts["decode_entry_rows"] == filed + 2

    def test_the_views_read_as_lists(self):
        """``records`` and ``delivered`` index, slice and iterate as the
        lists they replace, restored or not, and cannot be changed."""
        session = _posting_session(13)
        fresh = built_session()
        fresh.restore_state(session.snapshot_state())
        for built in (session, fresh):
            records, delivered = list(built.records), list(built.delivered)
            assert len(delivered) == 3 and len(built.delivered) == 3
            for index in range(-3, 3):
                assert built.delivered[index] == delivered[index]
            for start in (None, -3, 0, 1, 2, 4, 9):
                for stop in (None, -1, 0, 2, 3, 7):
                    span = slice(start, stop)
                    assert built.delivered[span] == delivered[span]
                    assert built.records[span] == records[span]
            assert built.delivered[::2] == delivered[::2]
            assert built.records[-1] is built.records[12] == records[-1]
            assert built.records == records and records == built.records
            assert built.records != records[:-1]
            with pytest.raises(IndexError):
                built.delivered[3]
            with pytest.raises(TypeError):
                built.records[0] = records[0]
            with pytest.raises(AttributeError):
                built.records.append(records[0])

    @pytest.mark.parametrize(
        "craft, unreadable",
        [
            (lambda record, rows: b"zz", ("records", "delivered")),
            (lambda record, rows: pack_fields(record), ("records", "delivered")),
            (lambda record, rows: pack_fields(b"zz", rows), ("records",)),
            (lambda record, rows: pack_fields(record, b"zz"), ("delivered",)),
            (
                lambda record, rows: pack_fields(record, pack_fields(pack_fields(1, 2))),
                ("delivered",),
            ),
        ],
        ids=["not-fields", "no-rows", "record", "rows", "short-row"],
    )
    def test_a_crafted_entry_is_refused_when_it_is_read(self, craft, unreadable):
        """A history whose head was recomputed over a bad entry restores,
        since only the last record is decoded; reading the bad entry raises
        CheckpointError, never a bare error.  As the last entry, it is
        refused at restore."""
        session = _posting_session(6)
        snapshot = session.snapshot_state()
        entries = unpack_fields(_session_field(snapshot, "coordinator", "history"))
        bad = craft(*unpack_fields(entries[0]))
        fresh = built_session()
        fresh.restore_state(_with_history(snapshot, [bad, *entries[1:]]))
        for name in ("records", "delivered"):
            if name in unreadable:
                with pytest.raises(CheckpointError):
                    list(getattr(fresh, name))
            else:
                assert getattr(fresh, name) == getattr(session, name)
        if "records" in unreadable:
            with pytest.raises(CheckpointError):
                fresh.restore_state(_with_history(snapshot, [*entries[:-1], bad]))


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

    def test_a_checkpoint_before_set_up_holds_no_pair_secrets(self, group_name):
        """Members derive their pair secrets in set-up, so a checkpoint cut
        before it carries none; the restored members derive them in their
        own set-up, and it schedules and masks as the original's does."""
        session = DissentSession.build(group_name, 2, 3, seed=7)
        snapshot = session.snapshot_state()
        _, servers, clients = unpack_fields(snapshot)
        members = unpack_fields(servers) + unpack_fields(clients)
        assert [unpack_fields(member)[-1] for member in members] == [b""] * 5
        fresh = DissentSession.build(group_name, 2, 3, seed=7)
        fresh.restore_state(snapshot)
        for built in (session, fresh):
            built.setup()
            built.post(1, b"after set-up")
        assert [c.secrets for c in fresh.clients] == [
            c.secrets for c in session.clients
        ]
        assert fresh.run_round().output == session.run_round().output

    def test_checkpoint_file_is_portable(self, tmp_path, group_name):
        path = tmp_path / "session.ckpt"
        session = built_session(group_name=group_name)
        session.run_rounds(1)
        save_session(session, path)
        payload = read_checkpoint(path, kind="session")
        assert _session_field(payload, "coordinator", "round_number") == 1
        assert len(unpack_fields(_session_field(payload, "servers"))) == 2
        assert len(unpack_fields(_session_field(payload, "clients"))) == 3


class TestCheckpointVersion:
    def test_the_version_12_payload_is_pinned(self, tmp_path):
        """Version 12 is nested packed fields: no client section holds a
        delivery history and no archive a cleartext; the coordinator
        section holds the one history, an entry per filed round (its
        record and the messages it delivered) and the SHA-256 of them, and
        the schedule that decodes them; each member section ends with its
        pair secrets, one per peer.  The payload is pinned byte for byte."""
        path = tmp_path / "xor.ckpt"
        session = built_session()
        session.post(0, b"before the barrier")
        session.post(2, b"queued across it")
        session.run_rounds(2)
        save_session(session, path)
        magic, version, kind, digest, payload = unpack_fields(path.read_bytes())
        assert (magic, kind) == ("dissent.checkpoint", "session")
        assert version == CHECKPOINT_VERSION == 12
        clients = unpack_fields(_session_field(payload, "clients"))
        assert all(len(unpack_fields(c)) == 15 for c in clients)
        servers = unpack_fields(_session_field(payload, "servers"))
        assert all(len(unpack_fields(s)) == 8 for s in servers)
        # The last field of a member section: its secrets, in peer order.
        pairs = ((clients, session.clients), (servers, session.servers))
        for sections, members in pairs:
            for section, member in zip(sections, members):
                assert unpack_fields(unpack_fields(section)[-1]) == member.secrets
        assert not any(_session_field(payload, "clients", i, "sent_history")
                       for i in range(3))  # fmt: skip
        archives = [
            archive
            for i in range(2)
            for archive in unpack_fields(_session_field(payload, "servers", i, "archive"))
        ]
        assert archives and all(len(unpack_fields(a)) == 7 for a in archives)
        # One entry a round, its record then its rows; round 1 delivers
        # both posts, in slot order.
        history = _session_field(payload, "coordinator", "history")
        entries = [unpack_fields(entry) for entry in unpack_fields(history)]
        assert [unpack_fields(record)[0] for record, _ in entries] == [0, 1]
        assert [
            tuple(unpack_fields(row)) for _, rows in entries for row in unpack_fields(rows)
        ] == sorted(
            (1, session.clients[i].slot, message)
            for i, message in ((0, b"before the barrier"), (2, b"queued across it"))
        )
        head = _session_field(payload, "coordinator", "head")
        assert head == hashlib.sha256(history).digest()
        assert _session_field(payload, "coordinator", "delivery_schedule") == (
            encode_scheduler(session.clients[0].scheduler)
        )
        assert digest.hex() == (
            "0a7037a82d29c1ae069c01b3af17c4202d0ceafe388ceab75a5113f1bf43deb0"
        )


class TestDescribe:
    def test_keys_and_pair_secrets_are_not_printed(self, tmp_path, capsys):
        """``report --checkpoint`` prints a pseudonym key as "(private
        key)" and a member's pair secrets as their count: no scalar and no
        secret byte reaches the output."""
        from repro.obs import report

        path = tmp_path / "session.ckpt"
        session = built_session()
        session.run_rounds(1)
        save_session(session, path)
        assert report.main(["--checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("pseudonym: (private key)") == 3
        # Two servers, three clients: M = 2 secrets a client, N = 3 a server.
        assert out.count("_secrets: 2 pair secrets\n") == 3
        assert out.count("_secrets: 3 pair secrets\n") == 2
        for client in session.clients:
            assert str(client.pseudonym.x) not in out
        for member in (*session.clients, *session.servers):
            for secret in member.secrets:
                assert secret.hex() not in out and repr(secret) not in out


class TestHybridRoundTrip:
    """Verdict's hybrid mode keeps blame evidence the XOR path does not —
    each client's sent history — and reads its slot layout off a
    scheduler; all of it must survive a file."""

    @pytest.mark.parametrize("group_name", BACKENDS)
    def test_restored_hybrid_session_runs_on(self, tmp_path, group_name):
        from repro.core import build_session

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
        from repro.verdict.hybrid import build_hybrid_with_disruptor, replay_blame

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
        assert replay_blame(restored, 2, slot) == whole.blames[1]


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
