"""Durable session state: checkpoints, their format, and the audit log.

* :mod:`repro.persist.codec` — the checkpoint format: nested packed
  fields, section by section, reusing the wire codecs (no JSON, no hex).
  The coordinator's filed rounds ride as one history of entries and its
  SHA-256 head (:mod:`repro.core.history`): a save encodes only the
  rounds filed since the previous one, a restore checks the head and
  decodes the last record, and the other entries are decoded when
  ``session.records`` or ``session.delivered`` reads them.
* :mod:`repro.persist.checkpoint` — checksummed, atomically replaced files.
* :mod:`repro.persist.audit` — the append-only hash-chained audit log of
  expulsions, abandoned rounds, and blame verdicts.

:func:`save_session` / :func:`restore_session` checkpoint an in-process
:class:`~repro.core.session.DissentSession`; a networked checkpoint holds
the same ``coordinator`` section beside its nodes' sections
(:meth:`repro.net.runner.NetworkedSession.checkpoint`).
"""

from __future__ import annotations

from repro.persist import codec
from repro.persist.audit import AuditLog, read_audit_log
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import encode_coordinator_state

__all__ = [
    "AuditLog",
    "CHECKPOINT_VERSION",
    "codec",
    "encode_coordinator_state",
    "read_audit_log",
    "read_checkpoint",
    "write_checkpoint",
    "save_session",
    "restore_session",
]


def save_session(session, path) -> int:
    """Checkpoint a :class:`DissentSession` at a round barrier; returns the
    bytes written."""
    return write_checkpoint(
        path, session.snapshot_state(), kind="session", registry=session.registry
    )


def restore_session(session, path) -> None:
    """Restore a freshly-built session (same keys/definition) from disk."""
    session.restore_state(read_checkpoint(path, kind="session"))
