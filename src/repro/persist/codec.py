"""JSON codecs for durable session state.

Everything a crash-recovery checkpoint stores round-trips through plain
JSON here: RNG state, scheduler state, round records and archives, and
the full mutable state of clients, servers, and sessions.  The encoders
produce only JSON-native values (dicts, lists, strings, numbers, bools,
None); binary payloads are hex strings and group elements/scalars reuse
the canonical wire encodings, so a checkpoint written under one process
restores bit-identically in another.

Decoders take the live object (or enough constructor context) because
long-lived identity — private keys, the group definition — is *not*
checkpointed: a restore attaches durable state to freshly-built nodes
that already hold their keys.  The one exception is the client's
pseudonym key, which is generated during the key shuffle and cannot be
re-derived, so it rides in the client state.

Decoding is total: every field is required and checked for its JSON
type (a bool is no integer), so a malformed checkpoint raises
:class:`~repro.errors.CheckpointError` and never a bare ``TypeError``
or a half-typed restore (``tests/test_persist.py::TestMutatedCheckpoints``).
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial

from repro.core.client import DissentClient, _SentRecord
from repro.core.config import Policy
from repro.core.rounds import RoundOutput, RoundRecord, RoundStatus
from repro.core.schedule import RoundLayout, Scheduler
from repro.core.server import DissentServer, RoundArchive
from repro.crypto.groups import Group
from repro.crypto.keys import PrivateKey
from repro.errors import CheckpointError, DissentError

#: What a malformed field raises: the typed error of the decoder it feeds,
#: or the ``ValueError`` / ``TypeError`` of ``bytes.fromhex`` on a non-hex
#: or non-string value.  Anything else is a bug and propagates.
_MALFORMED = (DissentError, ValueError, TypeError)


def _require(data: dict, key: str, what: str):
    if type(data) is not dict:
        raise CheckpointError(f"{what} checkpoint is not an object")
    if key not in data:
        raise CheckpointError(f"{what} checkpoint is missing {key!r}")
    return data[key]


def _typed(value, kind: type, what: str, optional: bool = False):
    """``value`` if it is exactly a ``kind`` (or None, when ``optional``)."""
    if (value is None and optional) or type(value) is kind:
        return value
    raise CheckpointError(f"{what} is not a {kind.__name__}: {value!r}")


def _field(data: dict, key: str, what: str, kind: type, optional: bool = False):
    return _typed(_require(data, key, what), kind, f"{what} {key!r}", optional)


def _row(value, kinds: list, what: str) -> list:
    """A list whose items are exactly of the given ``kinds``, in order."""
    if type(value) is not list or [type(item) for item in value] != kinds:
        raise CheckpointError(f"{what} is not a row of {kinds}: {value!r}")
    return value


def _ints(value, what: str, bound: int | None = None):
    """A list of integers, each below ``bound``."""
    items = _typed(value, list, what)
    for item in items:
        _typed(item, int, f"{what} entry")
        if bound is not None and not 0 <= item < bound:
            raise CheckpointError(f"{what} entry {item} out of range")
    return items


def _members(data: dict, key: str, what: str, bound: int) -> set[int]:
    """A set of member indices, each below ``bound``."""
    return set(_ints(_require(data, key, what), f"{what} {key!r}", bound=bound))


def _hex(value, what: str, parse=bytes.fromhex):
    try:
        return parse(_typed(value, str, what))
    except ValueError as exc:
        raise CheckpointError(f"{what} is not hex: {exc}") from exc


_HEX_INT = partial(int, base=16)


def _from_wire(data: str | None, decode, what: str):
    """Hex of wire bytes through ``decode`` (None stays None)."""
    if data is None:
        return None
    try:
        return decode(bytes.fromhex(data))
    except _MALFORMED as exc:
        raise CheckpointError(f"{what} rejected: {exc}") from exc


def _by_number(value, what: str) -> dict:
    """A JSON object keyed by round or member numbers, as ints, in order."""
    try:
        return {int(k): v for k, v in _typed(value, dict, what).items()}
    except ValueError as exc:
        raise CheckpointError(f"{what} has a non-numeric key: {exc}") from exc


# ---------------------------------------------------------------------------
# RNG and scheduler state
# ---------------------------------------------------------------------------


def encode_rng_state(state) -> list:
    """``random.Random.getstate()`` → JSON (nested tuples become lists)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data) -> tuple:
    if type(data) is not list or len(data) != 3:
        raise CheckpointError(f"malformed RNG state: {data!r:.40}")
    version, internal, gauss_next = data
    return (
        _typed(version, int, "RNG version"),
        tuple(_typed(internal, list, "RNG state")),
        _typed(gauss_next, float, "RNG gauss_next", optional=True),
    )


def restore_rng(rng: random.Random, data) -> None:
    try:
        # setstate checks each of the 625 words is an unsigned 32-bit int.
        rng.setstate(decode_rng_state(data))
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"RNG state rejected: {exc}") from exc


def encode_scheduler(scheduler: Scheduler) -> dict:
    return {
        "num_slots": scheduler.num_slots,
        "round_number": scheduler.round_number,
        "states": [list(state) for state in scheduler._states],
    }


def decode_scheduler(data: dict, policy: Policy) -> Scheduler:
    num_slots = _field(data, "num_slots", "scheduler", int)
    states = _field(data, "states", "scheduler", list)
    if num_slots < 1 or len(states) != num_slots:
        raise CheckpointError("scheduler state count does not match slot count")
    scheduler = Scheduler(num_slots, policy)
    scheduler._states = tuple(
        tuple(_row(state, [int, int], "scheduler state")) for state in states
    )
    scheduler.round_number = _field(data, "round_number", "scheduler", int)
    return scheduler


# ---------------------------------------------------------------------------
# Round outputs, records, archives
# ---------------------------------------------------------------------------


def encode_round_output(group: Group, output: RoundOutput | None) -> str | None:
    from repro.net.wire import encode_round_output_body

    if output is None:
        return None
    return encode_round_output_body(group, output).hex()


def decode_round_output(group: Group, data: str | None) -> RoundOutput | None:
    from repro.net.wire import decode_round_output_body

    return _from_wire(data, partial(decode_round_output_body, group), "round output")


def encode_certificate(group: Group, certificate) -> str | None:
    """A round certificate as hex of its canonical wire bytes."""
    if certificate is None:
        return None
    return certificate.to_wire(group).hex()


def decode_certificate(group: Group, data: str | None):
    from repro.consensus.certificate import RoundCertificate

    return _from_wire(data, partial(RoundCertificate.from_wire, group), "certificate")


def encode_equivocation_proof(group: Group, proof) -> str | None:
    """A transferable equivocation proof as hex of its wire bytes."""
    if proof is None:
        return None
    return proof.to_wire(group).hex()


def decode_equivocation_proof(group: Group, data: str | None):
    from repro.consensus.certificate import EquivocationProof

    return _from_wire(data, partial(EquivocationProof.from_wire, group), "proof")


def encode_record(group: Group, record: RoundRecord) -> dict:
    return {
        "round_number": record.round_number,
        "status": record.status.value,
        "participation": record.participation,
        "output": encode_round_output(group, record.output),
        "shuffle_requested": record.shuffle_requested,
        "certificate": encode_certificate(group, record.certificate),
    }


def decode_record(group: Group, data: dict) -> RoundRecord:
    what = "round record"
    try:
        status = RoundStatus(_field(data, "status", what, str))
    except ValueError as exc:
        raise CheckpointError(f"unknown round status: {exc}") from exc
    return RoundRecord(
        round_number=_field(data, "round_number", what, int),
        status=status,
        participation=_field(data, "participation", what, int),
        output=decode_round_output(group, _require(data, "output", what)),
        shuffle_requested=_field(data, "shuffle_requested", what, bool),
        certificate=decode_certificate(group, _require(data, "certificate", what)),
    )


def encode_archive(group: Group, archive: RoundArchive) -> dict:
    from repro.net.wire import encode_envelope

    return {
        "round_number": archive.round_number,
        "layout": {
            "num_slots": archive.layout.num_slots,
            "capacities": list(archive.layout.capacities),
        },
        "final_list": list(archive.final_list),
        "assignment": {str(k): v for k, v in archive.assignment.items()},
        "received_envelopes": {
            str(k): encode_envelope(group, env).hex()
            for k, env in archive.received_envelopes.items()
        },
        "server_ciphertexts": [blob.hex() for blob in archive.server_ciphertexts],
        "participation": archive.participation,
    }


def decode_archive(group: Group, data: dict) -> RoundArchive:
    from repro.net.wire import decode_envelope

    what = "round archive"
    layout_data = _require(data, "layout", what)
    num_slots = _field(layout_data, "num_slots", "archive layout", int)
    capacities = tuple(
        _ints(_require(layout_data, "capacities", "archive layout"), "capacities")
    )
    if len(capacities) != num_slots:
        raise CheckpointError("archive layout does not match its slot count")
    envelopes = _by_number(_require(data, "received_envelopes", what), what)
    decode = partial(decode_envelope, group)
    received = {
        k: _from_wire(_typed(v, str, "envelope"), decode, "archived envelope")
        for k, v in envelopes.items()
    }
    assignment = _by_number(_require(data, "assignment", what), what)
    return RoundArchive(
        round_number=_field(data, "round_number", what, int),
        layout=RoundLayout(num_slots, capacities),
        final_list=tuple(_ints(_require(data, "final_list", what), "final list")),
        assignment={k: _typed(v, int, "assignment") for k, v in assignment.items()},
        received_envelopes=received,
        server_ciphertexts=[
            _hex(blob, "server ciphertext")
            for blob in _field(data, "server_ciphertexts", what, list)
        ],
        participation=_field(data, "participation", what, int),
    )


# ---------------------------------------------------------------------------
# Client state
# ---------------------------------------------------------------------------


def encode_sent_records(records: dict) -> dict:
    """round -> what a client put in its slot (None: it sent nothing)."""
    return {
        str(r): None
        if record is None
        else {
            "slot_bytes": record.slot_bytes.hex(),
            "slot_bit_start": record.slot_bit_start,
            "payload_messages": [m.hex() for m in record.payload_messages],
        }
        for r, record in records.items()
    }


def decode_sent_records(data: dict) -> dict:
    what = "sent record"
    return {
        r: None
        if record is None
        else _SentRecord(
            slot_bytes=_hex(_require(record, "slot_bytes", what), "slot bytes"),
            slot_bit_start=_field(record, "slot_bit_start", what, int),
            payload_messages=[
                _hex(m, "sent message")
                for m in _field(record, "payload_messages", what, list)
            ],
        )
        for r, record in _by_number(data, "sent records").items()
    }


def encode_client_state(client: DissentClient) -> dict:
    """Full durable client state (identity key excluded, pseudonym included).

    A hybrid-mode client's state also holds its sent history, the evidence
    a replay of an archived round needs; an XOR client keeps none.
    """
    state = {
        "index": client.index,
        "pseudonym_x": format(client.pseudonym.x, "x") if client.pseudonym else None,
        "slot": client.slot,
        "slot_keys": [
            client.group.element_to_bytes(y).hex() for y in client.slot_keys
        ],
        "scheduler": encode_scheduler(client.scheduler),
        "outbox": [message.hex() for message in client.outbox],
        "last_participation": client.last_participation,
        "request_attempted": client._request_attempted,
        "sent": encode_sent_records(client._sent),
        "pending_accusation": (
            client.pending_accusation.to_bytes(client.group).hex()
            if client.pending_accusation is not None
            else None
        ),
        "accusation_submitted": client._accusation_submitted,
        "disruption_detected": client.disruption_detected,
        "rng_state": encode_rng_state(client.rng.getstate()),
    }
    if client.policy.dcnet_mode == "hybrid":
        state["sent_history"] = encode_sent_records(client.sent_history)
    return state


def decode_client_state(client: DissentClient, data: dict) -> None:
    """Apply an encoded client state to a freshly-built client in place."""
    from repro.core.accusation import Accusation

    what = "client"
    group = client.group
    if _field(data, "index", what, int) != client.index:
        raise CheckpointError(
            f"client checkpoint is for index {data['index']}, not {client.index}"
        )
    pseudonym_x = _require(data, "pseudonym_x", what)
    client.pseudonym = (
        PrivateKey(group, _hex(pseudonym_x, "pseudonym key", _HEX_INT))
        if pseudonym_x is not None
        else None
    )
    client.slot = _field(data, "slot", what, int, optional=True)
    client.slot_keys = _decode_elements(group, _require(data, "slot_keys", what))
    client.scheduler = decode_scheduler(
        _require(data, "scheduler", what), client.policy
    )
    client.outbox = deque(
        _hex(h, "queued message") for h in _field(data, "outbox", what, list)
    )
    client.last_participation = _field(
        data, "last_participation", what, int, optional=True
    )
    client._request_attempted = _field(data, "request_attempted", what, bool)
    client._sent = decode_sent_records(_require(data, "sent", what))
    client.sent_history = (
        decode_sent_records(_require(data, "sent_history", what))
        if client.policy.dcnet_mode == "hybrid"
        else {}
    )
    client.pending_accusation = _from_wire(
        _require(data, "pending_accusation", what),
        partial(Accusation.from_bytes, group),
        "archived accusation",
    )
    client._accusation_submitted = _field(data, "accusation_submitted", what, bool)
    client.disruption_detected = _field(data, "disruption_detected", what, bool)
    restore_rng(client.rng, _require(data, "rng_state", what))


def _decode_elements(group: Group, data) -> list[int]:
    """A slot schedule: group elements in their wire encoding, as hex."""
    try:
        return [
            group.element_from_bytes(_hex(h, "slot key"))
            for h in _typed(data, list, "slot keys")
        ]
    except DissentError as exc:
        raise CheckpointError(f"slot key rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# Server state
# ---------------------------------------------------------------------------


def encode_server_state(server: DissentServer) -> dict:
    """Durable server state at a round barrier (in-flight rounds excluded)."""
    return {
        "index": server.index,
        "scheduler": encode_scheduler(server.scheduler),
        "slot_keys": [
            server.group.element_to_bytes(y).hex() for y in server.slot_keys
        ],
        "expelled": sorted(server.expelled),
        "archive": {
            str(r): encode_archive(server.group, archive)
            for r, archive in server.archive.items()
        },
        "last_participation": server.last_participation,
        "rng_state": encode_rng_state(server.rng.getstate()),
    }


def decode_server_state(server: DissentServer, data: dict) -> None:
    """Apply an encoded server state to a freshly-built server in place."""
    what = "server"
    if _field(data, "index", what, int) != server.index:
        raise CheckpointError(
            f"server checkpoint is for index {data['index']}, not {server.index}"
        )
    server.scheduler = decode_scheduler(
        _require(data, "scheduler", what), server.policy
    )
    server.slot_keys = _decode_elements(server.group, _require(data, "slot_keys", what))
    server.expelled = _members(data, "expelled", what, server.definition.num_clients)
    # Archives finish in round order; sorting the keys preserves the
    # insertion-order eviction invariant of ``_trim_archive``.
    archive = _by_number(_require(data, "archive", what), "server archive")
    server.archive = {
        r: decode_archive(server.group, archive[r]) for r in sorted(archive)
    }
    server.last_participation = _field(
        data, "last_participation", what, int, optional=True
    )
    restore_rng(server.rng, _require(data, "rng_state", what))


# ---------------------------------------------------------------------------
# Whole-session state
# ---------------------------------------------------------------------------


def encode_coordinator_state(coordinator) -> dict:
    """The :class:`~repro.core.coordinator.Coordinator`'s whole mutable state.

    The one section an in-process ``session`` checkpoint and a networked
    ``net-session`` checkpoint share, byte for byte.
    """
    group = coordinator.definition.group
    return {
        "round_number": coordinator.round_number,
        "records": [encode_record(group, record) for record in coordinator.records],
        "delivery_schedule": encode_scheduler(coordinator.delivery_schedule),
        "delivered": [
            [r, slot, message.hex()] for r, slot, message in coordinator.delivered
        ],
        "expelled": sorted(coordinator.expelled),
        "convicted_servers": sorted(coordinator.convicted_servers),
        "equivocation_proofs": [
            encode_equivocation_proof(group, proof)
            for proof in coordinator.equivocation_proofs
        ],
        "scheduled": coordinator.scheduled,
        "slot_elements": [format(y, "x") for y in coordinator.slot_elements],
        "rng_state": encode_rng_state(coordinator.rng.getstate()),
    }


def decode_coordinator_state(coordinator, data: dict) -> None:
    """Apply an encoded coordinator state to a freshly-built driver in place."""
    definition = coordinator.definition
    group = definition.group
    what = "coordinator"
    coordinator.round_number = _field(data, "round_number", what, int)
    coordinator.records = [
        decode_record(group, record) for record in _field(data, "records", what, list)
    ]
    coordinator.delivery_schedule = decode_scheduler(
        _require(data, "delivery_schedule", what), definition.policy
    )
    coordinator.delivered = [
        (r, slot, _hex(h, "delivered message"))
        for r, slot, h in (
            _row(entry, [int, int, str], "delivered message")
            for entry in _field(data, "delivered", what, list)
        )
    ]
    coordinator.expelled = _members(data, "expelled", what, definition.num_clients)
    coordinator.convicted_servers = _members(
        data, "convicted_servers", what, definition.num_servers
    )
    coordinator.equivocation_proofs = [
        decode_equivocation_proof(group, _typed(blob, str, "equivocation proof"))
        for blob in _field(data, "equivocation_proofs", what, list)
    ]
    coordinator.scheduled = _field(data, "scheduled", what, bool)
    coordinator.slot_elements = [
        _hex(value, "slot schedule", _HEX_INT)
        for value in _field(data, "slot_elements", what, list)
    ]
    restore_rng(coordinator.rng, _require(data, "rng_state", what))


def encode_session_state(session) -> dict:
    """What :meth:`DissentSession.snapshot_state` returns (JSON-native)."""
    return {
        "coordinator": encode_coordinator_state(session),
        "servers": [encode_server_state(server) for server in session.servers],
        "clients": [encode_client_state(client) for client in session.clients],
    }


def decode_session_state(session, data: dict) -> None:
    """Apply an encoded session state to a freshly-built session in place."""
    server_states = _field(data, "servers", "session", list)
    client_states = _field(data, "clients", "session", list)
    if len(server_states) != len(session.servers) or len(client_states) != len(
        session.clients
    ):
        raise CheckpointError("session checkpoint does not match the group size")
    decode_coordinator_state(session, _require(data, "coordinator", "session"))
    for server, state in zip(session.servers, server_states):
        decode_server_state(server, state)
    for client, state in zip(session.clients, client_states):
        decode_client_state(client, state)
