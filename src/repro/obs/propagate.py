"""Cross-process trace propagation: the context that rides the wire.

A :class:`TraceContext` names one round's distributed trace — a
deterministic trace id, the originating span (``node/span_id``), and the
round number — and travels as the optional trailing field of routed
frames (:mod:`repro.net.wire`).  It is **observability metadata only**:
it sits outside every signed envelope body, receivers are free to ignore
it, and protocol handlers never read it, so tracing on vs off cannot
perturb protocol bytes.

Stitching model: every process records spans into its own tracer with
locally-sequential span ids; spans that belong to a distributed trace
carry ``trace_id`` (grouping), ``node`` (namespacing the local ids), and
optionally ``parent_ref`` (a ``node/span_id`` string naming a span in
*another* process).  :mod:`repro.obs.critical` assembles the merged
event logs into per-round trees from exactly these three attributes.

Outside ``repro.obs`` this module imports only :mod:`repro.errors` and
:mod:`repro.util.serialization` (the packed-field format and its typed
reader), never ``repro.net``, so the wire layer can import it without
cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import WireDecodeError
from repro.util.serialization import pack_fields, unpack_typed

_MAGIC = "dissent.trace-context.v1"


def round_trace_id(group_id: bytes, round_number: int) -> str:
    """Deterministic trace id for one round of one group.

    Derived (not random) so restarted coordinators, replayed rounds, and
    independent observers all name the same trace — and so fake-clock
    runs produce byte-identical trace exports.
    """
    digest = hashlib.sha256(
        b"dissent.trace|" + group_id + b"|" + str(int(round_number)).encode()
    )
    return digest.hexdigest()[:16]


def span_ref(node: str, span_id: int) -> str:
    """The cross-process name of one span: ``node/span_id``."""
    return f"{node}/{int(span_id)}"


@dataclass(frozen=True)
class TraceContext:
    """What one process tells the next about the trace in progress."""

    trace_id: str
    span_ref: str
    round_number: int

    def to_bytes(self) -> bytes:
        return pack_fields(_MAGIC, self.trace_id, self.span_ref, self.round_number)

    def child(self, node: str, span_id: int) -> "TraceContext":
        """The context a node forwards once it has its own round span."""
        return TraceContext(self.trace_id, span_ref(node, span_id), self.round_number)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceContext | None":
        """Parse a wire context; ``None`` for absent *or* malformed bytes.

        Trace context is best-effort by design — a frame whose trailing
        field does not parse still carries a valid protocol payload, so
        the dispatch path must never fault on it.
        """
        if not data:
            return None
        try:
            magic, trace_id, ref, round_number = unpack_typed(
                data, "sssi", "trace context"
            )
        except WireDecodeError:
            return None
        if magic != _MAGIC:
            return None
        return cls(trace_id=trace_id, span_ref=ref, round_number=round_number)


def context_bytes(context: "TraceContext | None") -> bytes:
    """``b""`` for no context — the form the wire codec elides entirely."""
    return b"" if context is None else context.to_bytes()
