"""Append-only, hash-chained audit log of membership events.

§3.7 says a group survives vanished members by abandoning the round and
re-forming membership; for a long-lived deployment those decisions must
be *auditable* after the fact.  Every entry records one event — an
abandoned round, an expulsion, a blame verdict — and carries the SHA-256
of its predecessor, so the log is tamper-evident: editing or dropping an
entry breaks every later link.

On disk the log is newline-delimited canonical JSON (one entry per
line), appended with ``O_APPEND`` semantics — a crash can lose at most
the final partial line.  :func:`read_audit_log` skips such a torn tail,
and :class:`AuditLog` cuts it off when it opens the file, so the next
entry starts a line of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from repro.errors import CheckpointError
from repro.util.serialization import canonical_json

_GENESIS = "0" * 64

#: Event types an entry may carry; free-form data rides alongside.
EVENT_TYPES = (
    "abandon",
    "expulsion",
    "blame",
    "resume",
    "checkpoint",
    "view_change",
    "equivocation",
    "flight_dump",
)


def _entry_digest(entry: dict) -> str:
    body = {k: v for k, v in entry.items() if k != "hash"}
    return hashlib.sha256(canonical_json(body)).hexdigest()


class AuditLog:
    """Writer handle for one audit-log file.

    The constructor reads any existing log so appends continue the hash
    chain across process restarts — the property that makes the log
    useful for crash recovery at all — and truncates a torn final line.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self.entries: list[dict] = []
        # A networked session appends from two threads: the caller's (blame,
        # expulsions, checkpoints) and its event loop's (rounds, resumes).
        self._lock = threading.Lock()
        if os.path.exists(self.path):
            raw = _read(self.path)
            self.entries = _parse(raw, self.path)
            complete = raw.rfind(b"\n") + 1
            if complete < len(raw):
                os.truncate(self.path, complete)

    @property
    def head(self) -> str:
        return self.entries[-1]["hash"] if self.entries else _GENESIS

    def append(self, event: str, **data) -> dict:
        """Record one event; returns the completed entry."""
        if event not in EVENT_TYPES:
            raise CheckpointError(
                f"unknown audit event {event!r}; expected one of {EVENT_TYPES}"
            )
        with self._lock:
            entry = {
                "index": len(self.entries),
                "event": event,
                "data": data,
                "prev": self.head,
            }
            entry["hash"] = _entry_digest(entry)
            line = canonical_json(entry) + b"\n"
            with open(self.path, "ab") as handle:
                handle.write(line)
                handle.flush()
            self.entries.append(entry)
        return entry


def read_audit_log(path: str | os.PathLike) -> list[dict]:
    """Load and verify a log's hash chain; returns the entries in order.

    A trailing partial line (torn final write) is ignored; any other
    malformation — bad JSON mid-file, a line that is not an object, an
    index gap, a broken hash link — raises :class:`CheckpointError`.
    """
    path = os.fspath(path)
    return _parse(_read(path), path)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"no audit log at {path}") from exc


def _parse(raw: bytes, path: str) -> list[dict]:
    entries: list[dict] = []
    lines = raw.split(b"\n")
    complete = lines[:-1]  # the file always ends each entry with \n
    for position, line in enumerate(complete):
        if not line:
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckpointError(
                f"audit log {path} line {position + 1} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(entry, dict):
            raise CheckpointError(
                f"audit log {path} line {position + 1} is not an object"
            )
        expected_prev = entries[-1]["hash"] if entries else _GENESIS
        if entry.get("index") != len(entries):
            raise CheckpointError(
                f"audit log {path} line {position + 1}: index "
                f"{entry.get('index')!r} breaks the sequence"
            )
        if entry.get("prev") != expected_prev:
            raise CheckpointError(
                f"audit log {path} line {position + 1}: hash chain broken"
            )
        if entry.get("hash") != _entry_digest(entry):
            raise CheckpointError(
                f"audit log {path} line {position + 1}: entry hash mismatch"
            )
        entries.append(entry)
    return entries
