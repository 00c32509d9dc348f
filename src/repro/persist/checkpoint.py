"""Versioned, checksummed, atomically-written checkpoint files.

A checkpoint is one JSON document::

    {"version": 9, "kind": "...", "sha256": "<hex>", "payload": {...}}

The checksum covers the canonical encoding of the payload, so silent
corruption (truncated write, bit rot, concurrent editor) surfaces as a
typed :class:`~repro.errors.CheckpointError` instead of a garbage
restore.  Writes go through a temp file in the same directory followed
by :func:`os.replace`, so a crash mid-write leaves the previous
checkpoint intact — readers only ever see a complete old file or a
complete new one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.errors import CheckpointError
from repro.util.serialization import canonical_json

# 2: archived envelopes and evidence carry v2 signatures (over sha256(body),
# repro.net.message); a version-1 file would only fail them one by one.
# 3: ``session`` and ``net-session`` payloads keep the control plane's state
# in one shared ``coordinator`` section (repro.persist.codec).
# 4: archived rounds hold ciphertexts masked with SHAKE-128 pair pads
# (repro.crypto.prng); a version-3 file's rounds would not trace against
# today's pads and could blame an honest member.
# 5: the group definition inside is version 2 (repro.core.config), whose
# policy no longer carries a shuffle soundness knob.
# 6: the group definition inside is version 3, whose policy lost the six
# fields no member had to agree on (window closure, outbox size, trace
# sampling, flight-recorder capacity).
# 7: a hybrid session's ``hybrid`` section holds only the clients' sent
# history; its per-round pad commitments are gone.
# 8: a hybrid client's sent history rides in its own client section; the
# session-level ``hybrid`` section is gone, and every field is required.
# 9: clients keep no delivery history and archives no cleartext; the
# ``coordinator`` section holds the one delivery log (``delivered``) and the
# slot schedule that decodes it (``delivery_schedule``).
CHECKPOINT_VERSION = 9


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def write_checkpoint(
    path: str | os.PathLike,
    payload: dict,
    kind: str = "session",
    registry=None,
) -> int:
    """Atomically persist ``payload``; returns the bytes written.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) records
    ``session.checkpoint.bytes`` / ``session.checkpoint.seconds``
    counters and a ``span.phase.checkpoint`` histogram so checkpoint
    cost shows up in the standard phase breakdown.
    """
    path = os.fspath(path)
    started = time.perf_counter()
    try:
        document = {
            "version": CHECKPOINT_VERSION,
            "kind": kind,
            "sha256": _payload_digest(payload),
            "payload": payload,
        }
        data = canonical_json(document)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint payload not JSON-encodable: {exc}") from exc
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if registry is not None:
        elapsed = time.perf_counter() - started
        registry.counter("session.checkpoint.bytes").inc(len(data))
        registry.counter("session.checkpoint.seconds").inc(elapsed)
        registry.histogram("span.phase.checkpoint").observe(elapsed)
    return len(data)


def read_checkpoint(
    path: str | os.PathLike, kind: str | None = None
) -> dict:
    """Load and validate a checkpoint; returns the payload dictionary.

    Raises :class:`CheckpointError` on a missing file, malformed JSON,
    version mismatch, checksum mismatch, or (when ``kind`` is given) a
    checkpoint of the wrong kind.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint at {path}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {document.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if kind is not None and document.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} is of kind {document.get('kind')!r}, "
            f"expected {kind!r}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} has no payload object")
    if _payload_digest(payload) != document.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} failed its checksum — corrupt or tampered"
        )
    return payload
