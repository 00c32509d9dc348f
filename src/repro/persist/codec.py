"""The checkpoint format: the one module that knows what a checkpoint holds.

A checkpoint is nested :func:`~repro.util.serialization.pack_fields`
fields, no JSON and no hex.  Each section below is declared once — its
fields in order, each a :func:`repro.util.serialization.check_types` code
and, when not stored as is, an encoder, a decoder and the section it nests
— and that declaration encodes it, decodes it and prints it
(:func:`describe`).  Round outputs, envelopes, int lists and int-keyed maps
keep their wire codecs (:mod:`repro.net.wire`); certificates, equivocation
proofs and accusations their owners' (``to_wire``/``from_wire``,
``to_bytes``/``from_bytes``); and an RNG state is one field of 625
words.  The coordinator section is the same bytes under both drivers; a
node file, a node's ``snapshot``/``restore`` frame and a ``net-session``
node entry are the same bytes.

The coordinator's filed rounds are one *history*
(:mod:`repro.core.history`): a list of entries, each a record and the
``(round, slot, message)`` rows it delivered (:func:`encode_entry`), and
its *head*, the SHA-256 of that list's bytes.  An entry is encoded once,
by the first save that holds it, and a later save copies the bytes it
holds; a restore checks the whole history against the head with one hash
and decodes only the last record, and every other entry is decoded when
``Coordinator.records`` or ``Coordinator.delivered`` reads it.  So save
and restore do not grow with the session's age beyond one copy and one
hash of its history.

Long-lived identity — private keys, the group definition — is not in a
``session`` checkpoint: a restore attaches state to freshly-built members
that already hold their keys.  What set-up derived from those keys rides
in the member sections, so a restart repeats none of it: each member's
pair secrets (the DH key agreement, 2·N·M exponentiations a group) and
the client's pseudonym key, whose public element is read back from the
schedule (``tests/test_bounded_state.py::TestTableCensus``).

Decoding is total and canonical: a section is parsed whole before any of
it is applied, a malformed field raises
:class:`~repro.errors.CheckpointError` (never a bare ``TypeError``, never a
coerced value), and a field that decodes re-encodes to exactly its bytes
(``tests/test_persist.py::TestMutatedCheckpoints``).  A changed byte of the
history fails its head at restore; a history crafted with a matching head
raises ``CheckpointError`` when the bad entry is read.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain

from repro.consensus import EquivocationProof, RoundCertificate
from repro.core.accusation import Accusation
from repro.core.client import _SentRecord
from repro.core.config import GroupDefinition
from repro.core.history import History
from repro.core.rounds import RoundRecord, RoundStatus
from repro.core.schedule import RoundLayout, Scheduler
from repro.core.server import RoundArchive
from repro.crypto.keys import PrivateKey
from repro.errors import CheckpointError, DissentError
from repro.net.wire import (
    decode_envelope,
    decode_int_list,
    decode_int_pairs,
    decode_keyed,
    decode_round_output_body,
    encode_envelope,
    encode_int_list,
    encode_int_pairs,
    encode_keyed,
    encode_round_output_body,
)
from repro.util.serialization import pack_fields, unpack_typed

# 2: v2 envelope signatures (over sha256(body)).  3: one ``coordinator``
# section shared by ``session`` and ``net-session``.  4: SHAKE-128 pair pads;
# an older file's rounds would not trace and could blame an honest member.
# 5 and 6: group definitions of version 2 and 3, whose policies lost the
# shuffle soundness knob, then six fields no member agrees on.  7: no hybrid
# pad commitments.  8: a hybrid client's sent history in its own section,
# every field required.  9: the coordinator holds the one delivery log;
# clients keep no delivery history, archives no cleartext.  10: nested
# packed fields in place of JSON; the digest covers the payload as read.
# 11: each member's pair secrets, so a restore does no key agreement.
# 12: the coordinator's records and delivered rows as one history of
# entries, carried verbatim with its head.
CHECKPOINT_VERSION = 12

_MAGIC = "dissent.checkpoint"

#: Python's Mersenne Twister state: 624 words and a position.
_RNG_WORDS = struct.Struct("<625I")

#: A pair secret K_ij is a SHA-256 digest (:func:`repro.crypto.dh.shared_secret`).
_SECRET_BYTES = 32


def _total(decode):
    """A decoder's typed failures — malformed bytes, a rejected certificate
    or element — are a CheckpointError; a bug underneath propagates."""

    @functools.wraps(decode)
    def wrapper(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except CheckpointError:
            raise
        except DissentError as exc:
            raise CheckpointError(f"{decode.__name__}: {exc}") from exc

    return wrapper


def _list(data: bytes, what: str) -> list[bytes]:
    return unpack_typed(data, "b*", what)


class _Section:
    """Named fields stored in order.  A field is a check_types code (stored
    as is; an ``n`` field's None as ``b""``) or ``(code, encode, decode,
    nested)``, the last one or two optional.  The codecs are called as
    ``encode(ctx, value)`` and ``decode(ctx, data)`` — the wire codecs'
    order — where ``ctx`` is the group for records and archives and the
    group definition elsewhere.  ``nested`` names the section a ``bytes``
    field holds, for :func:`describe`: a name, a name and ``*`` for a list
    of them, ``"counted"`` for a list shown by its length, ``"hex"`` for
    a digest shown in hex, or ``"secrets"`` for pair secrets, shown by
    their count only; ``{field}`` in it is that field's value (a node's
    ``state`` is its ``role``).
    ``finish(ctx, fields)``, when given, completes a parse with what
    spans several fields."""

    def __init__(self, name: str, finish=None, **fields) -> None:
        self.name = name
        self.finish = finish
        self.fields = {}
        for field, codec in fields.items():
            codec = (codec,) if isinstance(codec, str) else codec
            self.fields[field] = codec + (None,) * (4 - len(codec))
        self.spec = "".join(code for code, _, _, _ in self.fields.values())

    def encode(self, source, ctx, **given) -> bytes:
        """The fields of ``source``, or those ``given`` by name, packed."""
        values = []
        for field, (_, encode, _, _) in self.fields.items():
            value = given[field] if field in given else getattr(source, field)
            values.append(encode(ctx, value) if encode else _stored(value))
        return pack_fields(*values)

    def parse(self, data: bytes, ctx=None) -> dict:
        values = unpack_typed(data, self.spec, self.name)
        parsed = {
            field: decode(ctx, value) if decode else value
            for (field, (_, _, decode, _)), value in zip(self.fields.items(), values)
        }
        return self.finish(ctx, parsed) if self.finish else parsed


def _stored(value):
    return b"" if value is None else value


def _apply(target, state: dict) -> None:
    """Set a parsed member or coordinator section on a freshly-built one.
    A member's pair secrets are filled in place: its teardown finalizer
    holds that list."""
    index = state.pop("index", None)
    if index is not None and index != target.index:
        raise CheckpointError(f"checkpoint is for index {index}, not {target.index}")
    target.rng.setstate(state.pop("rng"))
    if "_secrets" in state:
        target._secrets[:] = state.pop("_secrets")
    for field, value in state.items():
        setattr(target, field, value)


# ---------------------------------------------------------------------------
# Field codecs
# ---------------------------------------------------------------------------


def encode_rng_state(state) -> bytes:
    """``random.Random.getstate()`` as one field of 625 little-endian words."""
    version, words, gauss_next = state
    if version != 3 or gauss_next is not None:
        # No member draws Gaussians; a cached one would be lost here.
        raise CheckpointError("RNG state holds more than the twister words")
    return _RNG_WORDS.pack(*words)


def decode_rng_state(data: bytes) -> tuple:
    if len(data) != _RNG_WORDS.size:
        raise CheckpointError(f"RNG state is {len(data)} bytes, not {_RNG_WORDS.size}")
    words = _RNG_WORDS.unpack(data)
    if words[-1] >= len(words):
        raise CheckpointError(f"RNG position {words[-1]} out of range")
    return (3, words, None)


def _bool(value: int) -> bool:
    if value not in (0, 1):
        raise CheckpointError(f"a flag is {value}, not 0 or 1")
    return bool(value)


def _status(value: str) -> RoundStatus:
    try:
        return RoundStatus(value)
    except ValueError as exc:
        raise CheckpointError(f"unknown round status: {exc}") from exc


def _plain(encode, decode, code: str = "b", nested=None):
    """A field whose codecs need no ``ctx``."""
    return (
        code, lambda ctx, value: encode(value), lambda ctx, data: decode(data), nested
    )  # fmt: skip


def _optional(encode, decode):
    """A ``bytes`` field whose ``b""`` is None."""
    return (
        "b",
        lambda ctx, value: b"" if value is None else encode(ctx, value),
        lambda ctx, data: decode(ctx, data) if data else None,
    )


def _listed(encode, decode, nested=None):
    """A list, one ``bytes`` field per item."""
    return (
        "b",
        lambda ctx, items: pack_fields(*[encode(ctx, item) for item in items]),
        lambda ctx, data: [decode(ctx, item) for item in _list(data, "list")],
        nested,
    )


def _sections(section: _Section):
    """A list of ``section``, each parsed, none applied."""
    return _listed(
        lambda ctx, source: section.encode(source, ctx),
        lambda ctx, data: section.parse(data, ctx),
        f"{section.name}*",
    )


def _members(bound: str):
    """A set of member indices, once each, in order, below ``ctx.<bound>``."""

    def decode(ctx, data: bytes) -> set[int]:
        items = decode_int_list(data)
        if list(items) != sorted(set(items)) or (
            items and items[-1] >= getattr(ctx, bound)
        ):
            raise CheckpointError(f"members {list(items)} out of order or range")
        return set(items)

    return "b", lambda ctx, members: encode_int_list(sorted(members)), decode


def _pair_secrets(peers: str):
    """A member's pair secrets: none before set-up, else one K_ij per peer
    (``ctx.<peers>`` of them), in peer order."""

    def decode(ctx, data: bytes) -> list[bytes]:
        secrets = _list(data, "pair secrets")
        if secrets and len(secrets) != getattr(ctx, peers):
            raise CheckpointError(
                f"{len(secrets)} pair secrets, not one per peer ({getattr(ctx, peers)})"
            )
        if any(len(secret) != _SECRET_BYTES for secret in secrets):
            raise CheckpointError(f"a pair secret is not {_SECRET_BYTES} bytes")
        return secrets

    return "b", lambda ctx, secrets: pack_fields(*secrets), decode, "secrets"


def _client_pseudonym(ctx, state: dict) -> dict:
    """The pseudonym key pair from its stored scalar.  Once the client
    holds a slot, the public element is the schedule's at that slot, where
    ``learn_schedule`` found it; only before that is it ``g**x``."""
    x, slot, elements = state["pseudonym"], state["slot"], state["slot_keys"]
    if slot is not None and slot >= len(elements):
        raise CheckpointError(f"slot {slot} outside a schedule of {len(elements)}")
    if x is not None:
        try:
            state["pseudonym"] = (
                PrivateKey(ctx.group, x)
                if slot is None
                else PrivateKey.with_public(ctx.group, x, elements[slot])
            )
        except ValueError as exc:
            raise CheckpointError(f"pseudonym key: {exc}") from exc
    return state


def _layout(data: bytes) -> RoundLayout:
    capacities = decode_int_list(data)
    return RoundLayout(len(capacities), capacities)


def _archives(ctx, data: bytes) -> dict[int, RoundArchive]:
    archives = [decode_archive(ctx.group, item) for item in _list(data, "archive")]
    rounds = [archive.round_number for archive in archives]
    if rounds != sorted(set(rounds)):
        # Archives finish in round order: ``_trim_archive`` evicts the first.
        raise CheckpointError(f"archived rounds {rounds} out of order")
    return dict(zip(rounds, archives))


def _encode_sent(ctx, record: _SentRecord | None) -> bytes:
    return b"" if record is None else _SENT.encode(record, ctx)


def _decode_sent(data: bytes) -> _SentRecord | None:
    return _SentRecord(**_SENT.parse(data)) if data else None


_INTS = _plain(encode_int_list, decode_int_list)
_BYTES = _plain(lambda items: pack_fields(*items), partial(_list, what="list"))
_BOOL = _plain(int, _bool, "i")
_RNG = _plain(lambda rng: encode_rng_state(rng.getstate()), decode_rng_state)
_SCHEDULE = (
    "b",
    lambda ctx, scheduler: encode_scheduler(scheduler),
    lambda ctx, data: decode_scheduler(data, ctx.policy),
    "scheduler",
)
_ELEMENTS = _listed(
    lambda ctx, element: ctx.group.element_to_bytes(element),
    lambda ctx, data: ctx.group.element_from_bytes(data),
)


def _slot_states(data: bytes) -> tuple:
    flat = decode_int_list(data)
    if not flat or len(flat) % 2:
        raise CheckpointError("scheduler states are not one pair per slot")
    return tuple(zip(flat[::2], flat[1::2]))


_SCHEDULER = _Section(
    "scheduler",
    round_number="i",
    _states=_plain(
        lambda states: encode_int_list(chain.from_iterable(states)), _slot_states
    ),
)


def encode_scheduler(scheduler: Scheduler) -> bytes:
    return _SCHEDULER.encode(scheduler, None)


@_total
def decode_scheduler(data: bytes, policy) -> Scheduler:
    fields = _SCHEDULER.parse(data)
    scheduler = Scheduler(len(fields["_states"]), policy)
    for field, value in fields.items():
        setattr(scheduler, field, value)
    return scheduler


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

_RECORD = _Section(
    "record",
    round_number="i",
    status=_plain(lambda status: status.value, _status, "s"),
    participation="i",
    output=_optional(encode_round_output_body, decode_round_output_body),
    shuffle_requested=_BOOL,
    certificate=_optional(
        lambda group, certificate: certificate.to_wire(group),
        lambda group, data: RoundCertificate.from_wire(group, data),
    ),
)

_ARCHIVE = _Section(
    "archive",
    round_number="i",
    layout=_plain(lambda layout: encode_int_list(layout.capacities), _layout),
    final_list=_INTS,
    assignment=_plain(encode_int_pairs, decode_int_pairs),
    received_envelopes=(
        "b",
        lambda group, received: encode_keyed(received, partial(encode_envelope, group)),
        lambda group, data: decode_keyed(
            data, "b", "envelopes", partial(decode_envelope, group)
        ),
    ),
    server_ciphertexts=_BYTES,
    participation="i",
)

_SENT = _Section(
    "sent record", slot_bytes="b", slot_bit_start="i", payload_messages=_BYTES
)
#: round -> what a client put in its slot (None: it sent nothing).
_SENT_RECORDS = (
    "b",
    lambda ctx, records: encode_keyed(records, partial(_encode_sent, ctx)),
    lambda ctx, data: decode_keyed(data, "b", "sent records", _decode_sent),
)

#: A client's durable state (identity key excluded; pseudonym and pair
#: secrets included); the sent history is what a hybrid-mode replay needs
#: (empty under XOR).  The M pair secrets are in server order, ``b""``
#: before set-up: a restore installs them and derives none.
_CLIENT = _Section(
    "client",
    finish=_client_pseudonym,
    index="i",
    pseudonym=("n", lambda ctx, key: _stored(key and key.x)),
    slot="n",
    slot_keys=_ELEMENTS,
    scheduler=_SCHEDULE,
    outbox=_plain(
        lambda outbox: pack_fields(*outbox), lambda data: deque(_list(data, "outbox"))
    ),
    last_participation="n",
    _request_attempted=_BOOL,
    _sent=_SENT_RECORDS,
    pending_accusation=_optional(
        lambda ctx, accusation: accusation.to_bytes(ctx.group),
        lambda ctx, data: Accusation.from_bytes(ctx.group, data),
    ),
    _accusation_submitted=_BOOL,
    disruption_detected=_BOOL,
    rng=_RNG,
    sent_history=_SENT_RECORDS,
    _secrets=_pair_secrets("num_servers"),
)

#: A server's durable state at a round barrier (no round in flight); its
#: N pair secrets in client order, ``b""`` before set-up.
_SERVER = _Section(
    "server",
    index="i",
    scheduler=_SCHEDULE,
    slot_keys=_ELEMENTS,
    expelled=_members("num_clients"),
    archive=(
        "b",
        lambda ctx, archive: pack_fields(
            *[encode_archive(ctx.group, entry) for entry in archive.values()]
        ),
        _archives,
        "counted",
    ),
    last_participation="n",
    rng=_RNG,
    _secrets=_pair_secrets("num_clients"),
)


def _history(ctx, state: dict) -> dict:
    """The coordinator's history from its field, checked against its head;
    only the last record is decoded (:meth:`History.restored`)."""
    state["history"] = History.restored(
        state["history"],
        state.pop("head"),
        partial(decode_entry_record, ctx.group),
        decode_entry_rows,
    )
    return state


#: The :class:`~repro.core.coordinator.Coordinator`'s whole mutable state.
#: ``history`` is its filed rounds, one entry each (:func:`encode_entry`)
#: as the first save encoded it, and ``head`` the SHA-256 of that field.
_COORDINATOR = _Section(
    "coordinator",
    finish=_history,
    round_number="i",
    history=("b", None, None, "counted"),
    head=("b", None, None, "hex"),
    delivery_schedule=_SCHEDULE,
    expelled=_members("num_clients"),
    convicted_servers=_members("num_servers"),
    equivocation_proofs=_listed(
        lambda ctx, proof: proof.to_wire(ctx.group),
        lambda ctx, data: EquivocationProof.from_wire(ctx.group, data),
    ),
    scheduled=_BOOL,
    slot_elements=_INTS,
    rng=_RNG,
)


@dataclass
class NetSession:
    """A ``net-session`` payload: what a networked coordinator restarts from."""

    definition: GroupDefinition
    mode: str
    server_keys: Sequence[PrivateKey]
    client_keys: Sequence[PrivateKey]
    server_seeds: Sequence[int]
    client_seeds: Sequence[int]
    #: The coordinator section, applied by :func:`decode_coordinator_state`.
    coordinator: bytes
    #: Node name -> node section, servers first, each checked whole.
    nodes: dict[str, bytes]


_KEYS = _plain(lambda keys: encode_int_list([key.x for key in keys]), decode_int_list)
#: A coordinator section, encoded and applied by its own codec.
_COORDINATOR_FIELD = ("b", None, None, "coordinator")
_NET_SESSION = _Section(
    "net-session",
    definition=_plain(
        lambda definition: definition.canonical_bytes(),
        GroupDefinition.from_canonical_bytes,
    ),
    mode="s",
    server_keys=_KEYS,
    client_keys=_KEYS,
    server_seeds=_INTS,
    client_seeds=_INTS,
    coordinator=_COORDINATOR_FIELD,
    nodes=_plain(
        lambda nodes: pack_fields(*nodes.values()), partial(_list, what="nodes"),
        nested="node*",
    ),
)
_SESSION = _Section(
    "session",
    coordinator=_COORDINATOR_FIELD,
    servers=_sections(_SERVER),
    clients=_sections(_CLIENT),
)
_NODE = _Section(
    "node", role="s", rounds_done="i", recv_count="i", generation="i",
    convicted=_members("num_servers"), state=("b", None, None, "{role}"),
)  # fmt: skip
_FILE = _Section("file", magic="s", version="i", kind="s", sha256="b", payload="b")

#: Every section by name, for :func:`describe` and its readers.
SECTIONS = {
    section.name: section
    for section in (
        _FILE, _SESSION, _NET_SESSION, _NODE, _COORDINATOR, _SERVER, _CLIENT,
        _SCHEDULER, _RECORD, _ARCHIVE, _SENT,
    )
}  # fmt: skip

# ---------------------------------------------------------------------------
# Encoders and decoders
# ---------------------------------------------------------------------------


def encode_record(group, record: RoundRecord) -> bytes:
    return _RECORD.encode(record, group)


@_total
def decode_record(group, data: bytes) -> RoundRecord:
    return RoundRecord(**_RECORD.parse(data, group))


def encode_entry(group, record: RoundRecord, rows) -> bytes:
    """One history entry: a filed record and the ``(round, slot,
    message)`` rows it delivered."""
    return pack_fields(
        encode_record(group, record), pack_fields(*[pack_fields(*row) for row in rows])
    )


@_total
def decode_entry_record(group, data: bytes) -> RoundRecord:
    record, _ = unpack_typed(data, "bb", "history entry")
    return decode_record(group, record)


@_total
def decode_entry_rows(data: bytes) -> list[tuple[int, int, bytes]]:
    _, rows = unpack_typed(data, "bb", "history entry")
    return [
        tuple(unpack_typed(row, "iib", "delivered message"))
        for row in _list(rows, "delivered")
    ]


def encode_archive(group, archive: RoundArchive) -> bytes:
    return _ARCHIVE.encode(archive, group)


@_total
def decode_archive(group, data: bytes) -> RoundArchive:
    return RoundArchive(**_ARCHIVE.parse(data, group))


def encode_client_state(client) -> bytes:
    return _CLIENT.encode(client, client.definition)


@_total
def decode_client_state(client, data: bytes) -> None:
    """Apply an encoded client state to a freshly-built client in place."""
    _apply(client, _CLIENT.parse(data, client.definition))


def encode_server_state(server) -> bytes:
    return _SERVER.encode(server, server.definition)


@_total
def decode_server_state(server, data: bytes) -> None:
    """Apply an encoded server state to a freshly-built server in place."""
    _apply(server, _SERVER.parse(data, server.definition))


def encode_coordinator_state(coordinator) -> bytes:
    """The section a ``session`` and a ``net-session`` checkpoint share.
    Only the rounds filed since the previous save are encoded."""
    history, head = coordinator.history.encoded(
        partial(encode_entry, coordinator.definition.group)
    )
    return _COORDINATOR.encode(
        coordinator, coordinator.definition, history=history, head=head
    )


@_total
def decode_coordinator_state(coordinator, data: bytes) -> None:
    """Apply an encoded coordinator state to a freshly-built driver in place."""
    _apply(coordinator, _COORDINATOR.parse(data, coordinator.definition))


def encode_session_state(session) -> bytes:
    """What :meth:`DissentSession.snapshot_state` returns: a ``session`` payload."""
    coordinator = encode_coordinator_state(session)
    return _SESSION.encode(session, session.definition, coordinator=coordinator)


@_total
def decode_session_state(session, data: bytes) -> None:
    """Apply a ``session`` payload to a freshly-built session in place."""
    sections = _SESSION.parse(data, session.definition)
    members = session.servers + session.clients
    parsed = sections["servers"] + sections["clients"]
    if [state["index"] for state in parsed] != [member.index for member in members]:
        raise CheckpointError("session checkpoint does not match the group")
    decode_coordinator_state(session, sections["coordinator"])
    for member, state in zip(members, parsed):
        _apply(member, state)


def encode_node_state(node) -> bytes:
    """A networked node's checkpoint: its counters around its member section."""
    if node.role == "server":
        convicted, member = node.engine.convicted, encode_server_state(node.server)
    else:
        convicted, member = (), encode_client_state(node.client)
    return _NODE.encode(node, node.definition, convicted=convicted, state=member)


def _parse_node(definition, data: bytes) -> tuple[str, dict, dict]:
    """A node section's role, counters and parsed member section."""
    node = _NODE.parse(data, definition)
    role, state = node.pop("role"), node.pop("state")
    if role == "server":
        return role, node, _SERVER.parse(state, definition)
    if role == "client" and not node.pop("convicted"):
        return role, node, _CLIENT.parse(state, definition)
    raise CheckpointError(f"node checkpoint of role {role!r}")


@_total
def decode_node_state(node, data: bytes) -> None:
    """Apply a node checkpoint to a freshly-built node in place (its
    generation as written: the node starts the next one itself)."""
    role, counters, member = _parse_node(node.definition, data)
    if role != node.role:
        raise CheckpointError(f"{node.name}: checkpoint is for a {role}")
    _apply(node.server if role == "server" else node.client, member)
    if role == "server":
        node.engine.convicted = counters.pop("convicted")
    for field, value in counters.items():
        setattr(node, field, value)


def encode_net_session(state: NetSession) -> bytes:
    return _NET_SESSION.encode(state, None)


def _private_keys(definition, values, role: str) -> list[PrivateKey]:
    public = getattr(definition, f"{role}_keys")
    try:
        keys = [PrivateKey(definition.group, x) for x in values]
    except ValueError as exc:
        raise CheckpointError(f"{role} key: {exc}") from exc
    if [key.y for key in keys] != [key.y for key in public]:
        raise CheckpointError(f"{role} keys do not match the group definition")
    return keys


@_total
def decode_net_session(data: bytes) -> NetSession:
    """A ``net-session`` payload, every field checked and each node
    section parsed whole."""
    state = _NET_SESSION.parse(data)
    definition = state["definition"]
    names = [definition.server_name(j) for j in range(definition.num_servers)]
    names += [definition.client_name(i) for i in range(definition.num_clients)]
    counts = [len(state[f]) for f in ("server_seeds", "client_seeds", "nodes")]
    if counts != [definition.num_servers, definition.num_clients, len(names)]:
        raise CheckpointError("net-session checkpoint does not match its group")
    for name, node in zip(names, state["nodes"]):
        role, _, member = _parse_node(definition, node)
        owner = definition.server_name if role == "server" else definition.client_name
        if owner(member["index"]) != name:
            raise CheckpointError(f"the node section for {name} is another node's")
    for role in ("server", "client"):
        state[f"{role}_keys"] = _private_keys(definition, state[f"{role}_keys"], role)
    state["nodes"] = dict(zip(names, state["nodes"]))
    return NetSession(**state)


def encode_file(kind: str, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).digest()
    return _FILE.encode(
        None, None, magic=_MAGIC, version=CHECKPOINT_VERSION, kind=kind,
        sha256=digest, payload=payload,
    )  # fmt: skip


def decode_file(data: bytes, what: str = "checkpoint") -> tuple[str, bytes]:
    """``(kind, payload)`` of a checkpoint file of this version whose digest
    holds; the digest covers the payload bytes as read."""
    try:
        fields = _FILE.parse(data)
    except DissentError as exc:
        raise CheckpointError(
            f"{what} is not a version-{CHECKPOINT_VERSION} checkpoint: {exc}"
        ) from exc
    if fields["magic"] != _MAGIC:
        raise CheckpointError(f"{what} is not a checkpoint: magic {fields['magic']!r}")
    if fields["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{what} has version {fields['version']}; this build reads version "
            f"{CHECKPOINT_VERSION}"
        )
    if hashlib.sha256(fields["payload"]).digest() != fields["sha256"]:
        raise CheckpointError(f"{what} failed its checksum — corrupt or tampered")
    return fields["kind"], fields["payload"]


@_total
def describe(data: bytes) -> str:
    """A checkpoint file's kind, version and sections, one line per field,
    split by the declarations that decode them (``python -m
    repro.obs.report --checkpoint``).  Members are listed in full; the
    history is its entry count and head, none of it decoded, and archives
    are counted; a pseudonym key is not printed, and pair secrets only
    counted."""
    kind, payload = decode_file(data)
    lines = [f"checkpoint {kind}, version {CHECKPOINT_VERSION} (digest verified)"]

    def show(name: str, data: bytes, indent: str) -> None:
        if name not in SECTIONS:
            raise CheckpointError(f"no checkpoint section is called {name!r}")
        section = SECTIONS[name]
        values = dict(zip(section.fields, unpack_typed(data, section.spec, name)))
        for field, value in values.items():
            if type(value) is not bytes:
                secret = field == "pseudonym" and value is not None
                lines.append(f"{indent}{field}: {'(private key)' if secret else value}")
                continue
            nested = section.fields[field][3]
            if nested == "hex":
                lines.append(f"{indent}{field}: {value.hex()}")
                continue
            if nested == "secrets":
                count = len(_list(value, field))
                lines.append(f"{indent}{field}: {count} pair secrets")
                continue
            lines.append(f"{indent}{field}: {len(value)} bytes")
            if nested == "counted":
                lines[-1] += f", {len(_list(value, field))} entries"
            elif nested and nested.endswith("*"):
                for position, item in enumerate(_list(value, field)):
                    lines.append(f"{indent}  [{position}]")
                    show(nested[:-1], item, indent + "    ")
            elif nested:
                show(nested.format_map(values), value, indent + "  ")

    show(kind, payload, "")
    return "\n".join(lines)
