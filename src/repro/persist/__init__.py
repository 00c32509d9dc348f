"""Durable session state: checkpoints, codecs, and the audit log.

Three layers, composable from the bottom up:

* :mod:`repro.persist.codec` — pure JSON codecs for every piece of
  mutable protocol state (RNG, scheduler, records, archives, client and
  server state, whole sessions).
* :mod:`repro.persist.checkpoint` — versioned, checksummed, atomically
  replaced checkpoint files.
* :mod:`repro.persist.audit` — the append-only hash-chained audit log of
  expulsions, abandoned rounds, and blame verdicts.

:func:`save_session` / :func:`restore_session` tie them together for the
in-process :class:`~repro.core.session.DissentSession`; the networked
runtime's checkpoints hold the same ``coordinator`` section
(:func:`~repro.persist.codec.encode_coordinator_state`) beside its nodes'
states (see :meth:`repro.net.runner.NetworkedSession.checkpoint`).
"""

from __future__ import annotations

from repro.persist.audit import AuditLog, read_audit_log
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import (
    decode_archive,
    decode_certificate,
    decode_client_state,
    decode_coordinator_state,
    decode_equivocation_proof,
    decode_record,
    decode_rng_state,
    decode_scheduler,
    decode_server_state,
    decode_session_state,
    encode_archive,
    encode_certificate,
    encode_client_state,
    encode_coordinator_state,
    encode_equivocation_proof,
    encode_record,
    encode_rng_state,
    encode_scheduler,
    encode_server_state,
    encode_session_state,
)

__all__ = [
    "AuditLog",
    "CHECKPOINT_VERSION",
    "read_audit_log",
    "read_checkpoint",
    "write_checkpoint",
    "save_session",
    "restore_session",
    "decode_archive",
    "decode_certificate",
    "decode_client_state",
    "decode_coordinator_state",
    "decode_equivocation_proof",
    "decode_record",
    "decode_rng_state",
    "decode_scheduler",
    "decode_server_state",
    "decode_session_state",
    "encode_archive",
    "encode_certificate",
    "encode_client_state",
    "encode_coordinator_state",
    "encode_equivocation_proof",
    "encode_record",
    "encode_rng_state",
    "encode_scheduler",
    "encode_server_state",
    "encode_session_state",
]


def save_session(session, path) -> int:
    """Checkpoint a :class:`DissentSession` at a round barrier."""
    return write_checkpoint(
        path, session.snapshot_state(), kind="session", registry=session.registry
    )


def restore_session(session, path) -> None:
    """Restore a freshly-built session (same keys/definition) from disk."""
    session.restore_state(read_checkpoint(path, kind="session"))
