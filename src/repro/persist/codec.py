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
"""

from __future__ import annotations

import random
from collections import deque

from repro.core.client import DissentClient, _SentRecord
from repro.core.config import Policy
from repro.core.rounds import RoundOutput, RoundRecord, RoundStatus
from repro.core.schedule import RoundLayout, Scheduler
from repro.core.server import DissentServer, RoundArchive
from repro.crypto.groups import Group
from repro.crypto.keys import PrivateKey
from repro.errors import CheckpointError


def _require(data: dict, key: str, what: str):
    if key not in data:
        raise CheckpointError(f"{what} checkpoint is missing {key!r}")
    return data[key]


# ---------------------------------------------------------------------------
# RNG and scheduler state
# ---------------------------------------------------------------------------


def encode_rng_state(state) -> list:
    """``random.Random.getstate()`` → JSON (nested tuples become lists)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data) -> tuple:
    try:
        version, internal, gauss_next = data
        return (version, tuple(internal), gauss_next)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed RNG state: {exc}") from exc


def restore_rng(rng: random.Random, data) -> None:
    try:
        rng.setstate(decode_rng_state(data))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"RNG state rejected: {exc}") from exc


def encode_scheduler(scheduler: Scheduler) -> dict:
    return {
        "num_slots": scheduler.num_slots,
        "round_number": scheduler.round_number,
        "states": [list(state) for state in scheduler._states],
    }


def decode_scheduler(data: dict, policy: Policy) -> Scheduler:
    scheduler = Scheduler(_require(data, "num_slots", "scheduler"), policy)
    states = _require(data, "states", "scheduler")
    if len(states) != scheduler.num_slots:
        raise CheckpointError("scheduler state count does not match slot count")
    scheduler._states = tuple(
        (int(capacity), int(idle)) for capacity, idle in states
    )
    scheduler.round_number = int(_require(data, "round_number", "scheduler"))
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

    if data is None:
        return None
    try:
        return decode_round_output_body(group, bytes.fromhex(data))
    except Exception as exc:
        raise CheckpointError(f"round output rejected: {exc}") from exc


def encode_certificate(group: Group, certificate) -> str | None:
    """A round certificate as hex of its canonical wire bytes."""
    if certificate is None:
        return None
    return certificate.to_wire(group).hex()


def decode_certificate(group: Group, data: str | None):
    from repro.consensus.certificate import RoundCertificate

    if data is None:
        return None
    try:
        return RoundCertificate.from_wire(group, bytes.fromhex(data))
    except Exception as exc:
        raise CheckpointError(f"round certificate rejected: {exc}") from exc


def encode_equivocation_proof(group: Group, proof) -> str | None:
    """A transferable equivocation proof as hex of its wire bytes."""
    if proof is None:
        return None
    return proof.to_wire(group).hex()


def decode_equivocation_proof(group: Group, data: str | None):
    from repro.consensus.certificate import EquivocationProof

    if data is None:
        return None
    try:
        return EquivocationProof.from_wire(group, bytes.fromhex(data))
    except Exception as exc:
        raise CheckpointError(f"equivocation proof rejected: {exc}") from exc


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
    try:
        status = RoundStatus(_require(data, "status", "round record"))
    except ValueError as exc:
        raise CheckpointError(f"unknown round status: {exc}") from exc
    return RoundRecord(
        round_number=int(_require(data, "round_number", "round record")),
        status=status,
        participation=int(_require(data, "participation", "round record")),
        output=decode_round_output(group, data.get("output")),
        shuffle_requested=bool(data.get("shuffle_requested", False)),
        certificate=decode_certificate(group, data.get("certificate")),
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
        "cleartext": archive.cleartext.hex(),
        "participation": archive.participation,
    }


def decode_archive(group: Group, data: dict) -> RoundArchive:
    from repro.net.wire import decode_envelope

    layout_data = _require(data, "layout", "round archive")
    layout = RoundLayout(
        num_slots=int(_require(layout_data, "num_slots", "archive layout")),
        capacities=tuple(
            int(c) for c in _require(layout_data, "capacities", "archive layout")
        ),
    )
    try:
        received = {
            int(k): decode_envelope(group, bytes.fromhex(v))
            for k, v in _require(data, "received_envelopes", "round archive").items()
        }
    except Exception as exc:
        raise CheckpointError(f"archived envelope rejected: {exc}") from exc
    return RoundArchive(
        round_number=int(_require(data, "round_number", "round archive")),
        layout=layout,
        final_list=tuple(int(i) for i in _require(data, "final_list", "round archive")),
        assignment={
            int(k): int(v)
            for k, v in _require(data, "assignment", "round archive").items()
        },
        received_envelopes=received,
        server_ciphertexts=[
            bytes.fromhex(blob)
            for blob in _require(data, "server_ciphertexts", "round archive")
        ],
        cleartext=bytes.fromhex(_require(data, "cleartext", "round archive")),
        participation=int(_require(data, "participation", "round archive")),
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
    return {
        int(r): None
        if record is None
        else _SentRecord(
            slot_bytes=bytes.fromhex(record["slot_bytes"]),
            slot_bit_start=int(record["slot_bit_start"]),
            payload_messages=[bytes.fromhex(m) for m in record["payload_messages"]],
        )
        for r, record in data.items()
    }


def encode_client_state(client: DissentClient) -> dict:
    """Full durable client state (identity key excluded, pseudonym included)."""
    return {
        "index": client.index,
        "pseudonym_x": format(client.pseudonym.x, "x") if client.pseudonym else None,
        "slot": client.slot,
        "slot_keys": [
            client.group.element_to_bytes(y).hex() for y in client.slot_keys
        ],
        "scheduler": encode_scheduler(client.scheduler),
        "outbox": [message.hex() for message in client.outbox],
        "received": [
            [r, slot, message.hex()] for r, slot, message in client.received
        ],
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


def decode_client_state(client: DissentClient, data: dict) -> None:
    """Apply an encoded client state to a freshly-built client in place."""
    from repro.core.accusation import Accusation

    if data.get("index", client.index) != client.index:
        raise CheckpointError(
            f"client checkpoint is for index {data.get('index')}, "
            f"not {client.index}"
        )
    pseudonym_x = data.get("pseudonym_x")
    client.pseudonym = (
        PrivateKey(client.group, int(pseudonym_x, 16))
        if pseudonym_x is not None
        else None
    )
    client.slot = data.get("slot")
    client.slot_keys = [
        client.group.element_from_bytes(bytes.fromhex(h))
        for h in _require(data, "slot_keys", "client")
    ]
    client.scheduler = decode_scheduler(
        _require(data, "scheduler", "client"), client.policy
    )
    client.outbox = deque(
        bytes.fromhex(h) for h in _require(data, "outbox", "client")
    )
    client.received = [
        (int(r), int(slot), bytes.fromhex(h))
        for r, slot, h in _require(data, "received", "client")
    ]
    client.last_participation = data.get("last_participation")
    client._request_attempted = bool(data.get("request_attempted", False))
    client._sent = decode_sent_records(_require(data, "sent", "client"))
    accusation_hex = data.get("pending_accusation")
    if accusation_hex is not None:
        try:
            client.pending_accusation = Accusation.from_bytes(
                client.group, bytes.fromhex(accusation_hex)
            )
        except Exception as exc:
            raise CheckpointError(f"archived accusation rejected: {exc}") from exc
    else:
        client.pending_accusation = None
    client._accusation_submitted = bool(data.get("accusation_submitted", False))
    client.disruption_detected = bool(data.get("disruption_detected", False))
    restore_rng(client.rng, _require(data, "rng_state", "client"))


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
    if data.get("index", server.index) != server.index:
        raise CheckpointError(
            f"server checkpoint is for index {data.get('index')}, "
            f"not {server.index}"
        )
    server.scheduler = decode_scheduler(
        _require(data, "scheduler", "server"), server.policy
    )
    server.slot_keys = [
        server.group.element_from_bytes(bytes.fromhex(h))
        for h in _require(data, "slot_keys", "server")
    ]
    server.expelled = {int(i) for i in _require(data, "expelled", "server")}
    # Archives finish in round order; sorting the keys preserves the
    # insertion-order eviction invariant of ``_trim_archive``.
    server.archive = {
        r: decode_archive(server.group, _require(data, "archive", "server")[str(r)])
        for r in sorted(
            int(k) for k in _require(data, "archive", "server")
        )
    }
    server.last_participation = data.get("last_participation")
    restore_rng(server.rng, _require(data, "rng_state", "server"))
    server._rounds = {}


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
    group = coordinator.definition.group
    what = "coordinator"
    coordinator.round_number = int(_require(data, "round_number", what))
    coordinator.records = [
        decode_record(group, record) for record in _require(data, "records", what)
    ]
    coordinator.expelled = {int(i) for i in _require(data, "expelled", what)}
    coordinator.convicted_servers = {
        int(i) for i in _require(data, "convicted_servers", what)
    }
    coordinator.equivocation_proofs = [
        decode_equivocation_proof(group, blob)
        for blob in _require(data, "equivocation_proofs", what)
    ]
    coordinator.scheduled = bool(_require(data, "scheduled", what))
    try:
        coordinator.slot_elements = [
            int(value, 16) for value in _require(data, "slot_elements", what)
        ]
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed slot schedule: {exc}") from exc
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
    server_states = _require(data, "servers", "session")
    client_states = _require(data, "clients", "session")
    if len(server_states) != len(session.servers) or len(client_states) != len(
        session.clients
    ):
        raise CheckpointError("session checkpoint does not match the group size")
    decode_coordinator_state(session, _require(data, "coordinator", "session"))
    for server, state in zip(session.servers, server_states):
        decode_server_state(server, state)
    for client, state in zip(session.clients, client_states):
        decode_client_state(client, state)
