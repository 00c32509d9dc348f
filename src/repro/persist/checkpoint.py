"""Checksummed, atomically-written checkpoint files.

A checkpoint file is what :func:`repro.persist.codec.encode_file` lays
out: a header (magic, :data:`~repro.persist.codec.CHECKPOINT_VERSION`,
kind), the SHA-256 of the payload bytes, then the payload.  Silent
corruption (truncated write, bit rot, concurrent editor) surfaces as a
typed :class:`~repro.errors.CheckpointError` instead of a garbage
restore, and checking the digest re-encodes nothing.  Writes go through a
temp file in the same directory, ``fsync`` and :func:`os.replace`, so a
crash mid-write leaves the previous checkpoint intact — readers only ever
see a complete old file or a complete new one.
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.errors import CheckpointError
from repro.persist.codec import CHECKPOINT_VERSION, decode_file, encode_file

__all__ = ["CHECKPOINT_VERSION", "read_checkpoint", "write_checkpoint"]


def write_checkpoint(
    path: str | os.PathLike,
    payload: bytes,
    kind: str = "session",
    registry=None,
) -> int:
    """Atomically persist ``payload``; returns the bytes written.

    A failed write (a full disk, a failing ``fsync``) removes its temp
    file, leaves the previous checkpoint as it was and raises
    :class:`CheckpointError`.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) records
    ``session.checkpoint.bytes`` / ``session.checkpoint.seconds``
    counters and a ``span.phase.checkpoint`` histogram so checkpoint
    cost shows up in the standard phase breakdown.
    """
    path = os.fspath(path)
    started = time.perf_counter()
    if type(payload) is not bytes:
        raise CheckpointError(f"checkpoint payload is {type(payload).__name__}")
    data = encode_file(kind, payload)
    parent = os.path.dirname(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        # The previous checkpoint stays whole; leave no half-written temp.
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    if registry is not None:
        elapsed = time.perf_counter() - started
        registry.counter("session.checkpoint.bytes").inc(len(data))
        registry.counter("session.checkpoint.seconds").inc(elapsed)
        registry.histogram("span.phase.checkpoint").observe(elapsed)
    return len(data)


def read_checkpoint(path: str | os.PathLike, kind: str | None = None) -> bytes:
    """Load and validate a checkpoint; returns its payload.

    Raises :class:`CheckpointError` on a missing file, a file that is not
    a checkpoint of this version, a checksum mismatch, or (when ``kind``
    is given) a checkpoint of the wrong kind.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint at {path}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    found, payload = decode_file(raw, f"checkpoint {path}")
    if kind is not None and found != kind:
        raise CheckpointError(
            f"checkpoint {path} is of kind {found!r}, expected {kind!r}"
        )
    return payload
