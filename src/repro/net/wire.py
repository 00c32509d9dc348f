"""Canonical wire format: framing and body codecs for every envelope type.

Everything a Dissent node puts on a socket is a **frame**: a 4-byte
big-endian length prefix followed by that many payload bytes, with a hard
cap (:data:`MAX_FRAME_BYTES`) so a malicious peer cannot make a node
buffer unbounded input.  Frame payloads are either routed control
messages (:func:`encode_routed`) or serialized
:class:`~repro.net.message.SignedEnvelope` objects.

Every envelope body that crosses the wire has one canonical codec, so
``decode(encode(x)) == x`` holds field for field — including the
signature, which covers the exact bytes both sides reconstruct.  A packed
body is read by its owner through
:func:`~repro.util.serialization.unpack_typed` against one spec (the
:func:`~repro.util.serialization.check_types` codes), and a malformed one
is a :class:`~repro.errors.WireDecodeError` from that owner:

================== ====================================================
``msg_type``        spec: owner (encoder / decoder)
================== ====================================================
client-ciphertext   raw bytes: the masked vector
server-inventory    ``i*``: :func:`encode_int_list` / :func:`decode_int_list`
server-commit       raw bytes: the commitment hash
server-reveal       raw bytes: the server ciphertext
server-signature    raw bytes: :func:`encode_signature_body` /
                    :func:`decode_signature_body`
round-output        ``ibib*``: :func:`encode_round_output_body` /
                    :func:`decode_round_output_body`
shuffle-submission  ``bb``: ``keyshuffle.sign_shuffle_submission`` /
                    ``keyshuffle.open_shuffle_submissions``; its vector
                    ``bb*``: ``keyshuffle.unpack_cipher_vector``
accusation-reveal   ``ib``: :func:`encode_accusation_reveal_body` /
                    :func:`decode_accusation_reveal_body`; its
                    disclosure ``ibb``: :func:`decode_disclosure_body`
leader-propose      ``ib``: :func:`encode_consensus_body` /
                    ``consensus.proposal_view_digest`` (32-byte digest)
server-vote         ``ib``: as ``leader-propose``
view-change         ``is``: :func:`encode_view_change_body` /
                    :func:`decode_view_change_body`
================== ====================================================

Bodies that ride inside these or inside control frames have their owners
too: ``RoundCertificate.to_wire``/``from_wire`` (``iiibb*``, each vote
``ib``), ``EquivocationProof.to_wire``/``from_wire`` (``iiibb``),
``Accusation.to_bytes``/``from_bytes`` (``iiib``) and, outside every
signature, ``TraceContext.to_bytes``/``from_bytes`` (``sssi``; ``None``
for anything else).

Every other routed kind is a **control frame** between the coordinator
and a node.  :data:`CONTROL_SPECS` declares each packed-field body once,
and :func:`encode_control` (checks, then packs) and :func:`decode_control`
(exactly the declared fields, or ``WireDecodeError``) are the only way
either side builds or reads one:

=================== =====================================================
control kind        fields [a reply the coordinator reads as fields]
=================== =====================================================
hello               backend, element width, group id, rounds applied,
                    frames received
node-error          error name, message (``reply-error`` alike)
schedule            slot elements (a client replies with its slot)
round-begin         round, submitters (:func:`encode_int_list`)
commit-go           round (``round-abandon``, ``round-applied`` and
                    ``evidence-request`` alike)
round-failed        round, participation
inventory-status    round, participation, ok
expel               client index
post                message
status-request      none [pending traffic, pending accusation]
sched-request       purpose, one or more public keys
acc-request         width, one or more public keys
acc-outcome         handled
disclosure-request  round, bit index
rebut-request       round, bit index, claimed bits (:func:`encode_int_pairs`)
=================== =====================================================

``envelope``, ``round-done`` (:func:`encode_round_done_body`),
``snapshot`` / ``restore`` (a node checkpoint) and ``flight`` (a flight
dump's NDJSON, :func:`decode_flight_reply`) carry codecs of their own,
and so do the other replies (an envelope, :func:`encode_evidence`,
:func:`encode_rebuttal`, a cipher vector);
``telemetry``, ``trace`` and ``health`` are answered in canonical JSON of
the type :data:`JSON_REPLIES` declares (:func:`decode_json_reply`).

Decoding raises typed errors (:class:`~repro.errors.WireDecodeError` and
subclasses) — never bare ``ValueError``/``KeyError`` — so a node's
dispatch loop can reject adversarial bytes without crashing.

**Who copies a large body.**  A bulk round moves ~500 KiB envelope
bodies, so the envelope path is laid out to copy one exactly once per
hop:

* *send* — :func:`encode_routed_envelope` writes the routed frame, the
  envelope inside it and the body inside that with a single join (the
  bytes are identical to ``encode_routed(..., encode_envelope(...))``,
  which copies the body at each level);
* *relay* — :func:`decode_routed` parses the routing header in place; for
  an ``envelope`` frame, :attr:`RoutedFrame.body` is a zero-copy
  ``memoryview`` into the received payload, so the hub learns ``to`` and
  forwards the payload it was handed without materialising anything;
* *receive* — :func:`decode_envelope` accepts that view and materialises
  ``envelope.body`` straight from it: the one copy, owned by the
  envelope.  Every other field it returns, and every other frame kind's
  ``RoutedFrame.body``, is plain ``bytes``; no view outlives
  :func:`decode_envelope`.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import partial

from repro.consensus.certificate import EquivocationProof, RoundCertificate
from repro.core.accusation import Rebuttal, RoundEvidence, TraceDisclosure
from repro.core.rounds import RoundOutput
from repro.crypto.groups import Group
from repro.crypto.proofs import DleqProof
from repro.crypto.schnorr import Signature
from repro.errors import (
    FrameTooLarge,
    FrameTruncated,
    UnknownMessageType,
    WireDecodeError,
)
from repro.net.message import SignedEnvelope, is_known_type
from repro.obs.export import parse_flight_dump
from repro.util.serialization import (
    bytes_field_header,
    bytes_field_span,
    check_types,
    decode_value,
    pack_fields,
    unpack_fields,
    unpack_prefix,
    unpack_typed,
)

#: Hard cap on one frame's payload.  Large enough for a full round vector
#: (slots are clamped at ``Policy.max_slot_payload`` = 1 MiB) plus codec
#: overhead; small enough that a hostile length prefix cannot make a node
#: allocate gigabytes.
MAX_FRAME_BYTES = 1 << 24

_LEN_BYTES = 4

# v2: the signature inside covers sha256(body) (repro.net.message).
# v3: pair pads are SHAKE-128 (repro.crypto.prng) and commitments bind the
# body digest (repro.crypto.hashing).  An older peer is refused here, by
# magic, not by a failed signature or commitment check later — its pads
# would not cancel, which reads as disruption and could blame an honest
# member.
_ENVELOPE_MAGIC = "dissent.wire-envelope.v3"
# v2: the routing header carries the sender's ack (RoutedFrame.ack).
_ROUTED_MAGIC = "dissent.wire-routed.v2"

#: The routed-frame kind whose body is a serialized envelope — the one
#: kind :func:`decode_routed` hands over as a view instead of ``bytes``.
ENVELOPE_KIND = "envelope"

# The constant stretches of an envelope frame, packed once.
_ENVELOPE_PREFIX = pack_fields(_ENVELOPE_MAGIC)
_ROUTED_PREFIX = pack_fields(_ROUTED_MAGIC)
_ENVELOPE_KIND_SEQ0 = pack_fields(ENVELOPE_KIND, 0)


# ---------------------------------------------------------------------------
# Length-prefixed framing
# ---------------------------------------------------------------------------


def encode_frame_prefix(length: int, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """The length prefix for a ``length``-byte payload, enforcing the cap."""
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    return length.to_bytes(_LEN_BYTES, "big")


def encode_frame(payload: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap ``payload`` in a length prefix, enforcing the cap on send too."""
    return encode_frame_prefix(len(payload), max_frame_bytes) + payload


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete frames come back in
    order.  The length prefix is validated *before* the body is buffered,
    so an oversized announcement fails fast with :class:`FrameTooLarge`.
    :meth:`finish` reports a clean vs. mid-frame end of stream.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every frame completed by it."""
        self._buffer += data
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < _LEN_BYTES:
                break
            n = int.from_bytes(self._buffer[:_LEN_BYTES], "big")
            if n > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"peer announced a {n}-byte frame "
                    f"(cap is {self.max_frame_bytes})"
                )
            if len(self._buffer) < _LEN_BYTES + n:
                break
            frames.append(bytes(self._buffer[_LEN_BYTES : _LEN_BYTES + n]))
            del self._buffer[: _LEN_BYTES + n]
        return frames

    def finish(self) -> None:
        """Raise :class:`FrameTruncated` if the stream ended mid-frame."""
        if self._buffer:
            raise FrameTruncated(
                f"stream ended with {len(self._buffer)} bytes of a partial frame"
            )


def iter_frames(data: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> Iterator[bytes]:
    """Decode a complete buffer of concatenated frames (tests, files)."""
    decoder = FrameDecoder(max_frame_bytes)
    yield from decoder.feed(data)
    decoder.finish()


# ---------------------------------------------------------------------------
# Envelope codec
# ---------------------------------------------------------------------------


def _envelope_parts(group: Group, envelope: SignedEnvelope) -> tuple[bytes, ...]:
    """The canonical envelope encoding, un-joined: the body is not copied."""
    signature = envelope.signature.to_bytes(group)
    return (
        _ENVELOPE_PREFIX,
        pack_fields(
            envelope.msg_type,
            envelope.sender,
            envelope.group_id,
            envelope.round_number,
        ),
        bytes_field_header(len(envelope.body)),
        envelope.body,
        bytes_field_header(len(signature)),
        signature,
    )


def encode_envelope(group: Group, envelope: SignedEnvelope) -> bytes:
    """Canonical byte encoding of one signed envelope (seven packed fields:
    magic, type, sender, group id, round, body, signature)."""
    return b"".join(_envelope_parts(group, envelope))


def decode_envelope(group: Group, data: bytes | memoryview) -> SignedEnvelope:
    """Invert :func:`encode_envelope` with full structural validation.

    ``data`` may be the view :func:`decode_routed` returns for an envelope
    frame; the envelope's fields are always ``bytes``/``str``/``int``
    owned by the envelope.

    Raises:
        UnknownMessageType: the type tag is outside the protocol — peers
            must not be able to inject unvalidated tags into dispatch.
        WireDecodeError: any other malformation.
    """
    magic, msg_type, sender, group_id, round_number, body, sig_bytes = (
        unpack_typed(data, "sssbibb", "envelope")
    )
    if magic != _ENVELOPE_MAGIC:
        raise WireDecodeError(f"envelope magic {magic!r} unsupported")
    if not is_known_type(msg_type):
        raise UnknownMessageType(f"unknown message type {msg_type!r}")
    return SignedEnvelope(
        msg_type=msg_type,
        sender=sender,
        group_id=group_id,
        round_number=round_number,
        body=body,
        signature=decode_value(
            "envelope signature", Signature.from_bytes, group, sig_bytes
        ),
    )


# ---------------------------------------------------------------------------
# Routed control frames (node <-> coordinator plumbing)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoutedFrame:
    """One hub-routed message: addressing plus an opaque payload.

    Control traffic (round barriers, queries, acks) and serialized
    envelopes both travel as routed frames; ``kind`` selects the handler
    and ``seq`` correlates request/reply pairs (0 = unsolicited).
    ``ack`` is the count of inbound frames the sender has processed for
    good — the hub forgets every frame it sent the sender at or below
    it (0 from the coordinator, which has no outbox).
    ``trace`` is an optional serialized
    :class:`~repro.obs.propagate.TraceContext` riding *outside* the
    signed payload — observability metadata the receiver may ignore,
    never protocol content.
    """

    to: str
    sender: str
    kind: str
    seq: int
    body: bytes | memoryview
    trace: bytes = b""
    ack: int = 0


def encode_routed(
    to: str,
    sender: str,
    kind: str,
    seq: int,
    body: bytes,
    trace: bytes = b"",
    *,
    ack: int = 0,
) -> bytes:
    # The trace field is left out whenever there is no trace context.
    if not trace:
        return pack_fields(_ROUTED_MAGIC, to, sender, ack, kind, seq, body)
    return pack_fields(_ROUTED_MAGIC, to, sender, ack, kind, seq, body, trace)


def encode_routed_envelope(
    group: Group,
    to: str,
    sender: str,
    envelope: SignedEnvelope,
    trace: bytes = b"",
    *,
    ack: int = 0,
) -> bytes:
    """``encode_routed(to, sender, "envelope", 0, encode_envelope(...), trace,
    ack=ack)`` byte for byte, with the envelope body copied once instead of
    three times."""
    inner = _envelope_parts(group, envelope)
    return b"".join(
        (
            _ROUTED_PREFIX,
            pack_fields(to, sender, ack),
            _ENVELOPE_KIND_SEQ0,
            bytes_field_header(sum(map(len, inner))),
            *inner,
            pack_fields(trace) if trace else b"",
        )
    )


def decode_routed(data: bytes) -> RoutedFrame:
    """Parse one routed frame; the body of an envelope frame stays a view.

    The six header fields are decoded in place and the body field is
    only *located*: for :data:`ENVELOPE_KIND` it comes back as a
    ``memoryview`` into ``data`` (the hub forwards ``data`` itself and
    never looks inside; a node hands the view to :func:`decode_envelope`),
    for every other kind as ``bytes``, exactly as before.  A frame of an
    older format is refused by its magic before anything else is read.
    """
    what = "routed frame"
    if data[: len(_ROUTED_PREFIX)] != _ROUTED_PREFIX:
        raise WireDecodeError(f"routed frame magic unsupported: not {_ROUTED_MAGIC!r}")
    try:
        fields, offset = unpack_prefix(data, 6)
        start, end = bytes_field_span(data, offset)
        rest = unpack_fields(data[end:]) if end < len(data) else ()
    except ValueError as exc:
        raise WireDecodeError(f"malformed {what}: {exc}") from exc
    if len(rest) > 1:
        raise WireDecodeError(
            f"routed frame has {7 + len(rest)} fields, expected 7 or 8"
        )
    _, to, sender, ack, kind, seq = check_types(fields, "sssisi", what)
    (trace,) = check_types(list(rest), "b", what) if rest else (b"",)
    if kind == ENVELOPE_KIND:
        body = memoryview(data)[start:end]
    else:
        body = data[start:end]
    return RoutedFrame(to, sender, kind, seq, body, trace, ack)


# Control-frame kinds (coordinator <-> node plumbing; protocol content
# always travels as signed envelopes inside ``K_ENVELOPE`` frames).
K_HELLO = "hello"
K_ENVELOPE = ENVELOPE_KIND
K_REPLY = "reply"
K_REPLY_ERROR = "reply-error"
K_NODE_ERROR = "node-error"
K_SCHEDULE = "schedule"
K_SCHED_REQUEST = "sched-request"
K_ROUND_BEGIN = "round-begin"
K_COMMIT_GO = "commit-go"
K_ROUND_ABANDON = "round-abandon"
K_ROUND_FAILED = "round-failed"
K_INVENTORY_STATUS = "inventory-status"
K_ROUND_DONE = "round-done"
K_ROUND_APPLIED = "round-applied"
K_EXPEL = "expel"
K_POST = "post"
K_STATUS_REQUEST = "status-request"
K_ACC_REQUEST = "acc-request"
K_ACC_OUTCOME = "acc-outcome"
K_EVIDENCE_REQUEST = "evidence-request"
K_DISCLOSURE_REQUEST = "disclosure-request"
K_REBUT_REQUEST = "rebut-request"
K_TELEMETRY = "telemetry"
K_TRACE = "trace"
K_FLIGHT = "flight"
K_HEALTH = "health"
K_SNAPSHOT = "snapshot"
K_RESTORE = "restore"
K_SHUTDOWN = "shutdown"

#: The :func:`check_types` spec of every packed-field control body (for
#: ``status-request``, of the node's reply).
CONTROL_SPECS = {
    K_HELLO: "sibii",
    K_NODE_ERROR: "ss",
    K_REPLY_ERROR: "ss",
    K_SCHEDULE: "i*",
    K_ROUND_BEGIN: "ib",
    K_COMMIT_GO: "i",
    K_ROUND_ABANDON: "i",
    K_ROUND_FAILED: "ii",
    K_INVENTORY_STATUS: "iii",
    K_ROUND_APPLIED: "i",
    K_EXPEL: "i",
    K_POST: "b",
    K_STATUS_REQUEST: "ii",
    K_SCHED_REQUEST: "bbb*",
    K_ACC_REQUEST: "ibb*",
    K_ACC_OUTCOME: "i",
    K_EVIDENCE_REQUEST: "i",
    K_DISCLOSURE_REQUEST: "ii",
    K_REBUT_REQUEST: "iib",
}

#: Control replies that are canonical JSON, and the type each decodes to.
JSON_REPLIES = {K_TELEMETRY: dict, K_TRACE: list, K_HEALTH: dict}


def encode_control(kind: str, *fields) -> bytes:
    """A ``kind`` control body: ``fields`` checked against the kind's
    declared spec, then packed."""
    return pack_fields(*check_types(list(fields), CONTROL_SPECS[kind], kind))


def decode_control(kind: str, body: bytes) -> list:
    """The fields of a ``kind`` control body; :class:`WireDecodeError` for
    anything but exactly the declared ones."""
    return unpack_typed(body, CONTROL_SPECS[kind], kind)


def decode_json_reply(kind: str, body: bytes):
    """A JSON control reply of the type :data:`JSON_REPLIES` declares;
    :class:`WireDecodeError` for anything else."""
    try:
        value = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireDecodeError(f"{kind} reply is not JSON: {exc}") from exc
    if type(value) is not JSON_REPLIES[kind]:
        raise WireDecodeError(f"{kind} reply is a JSON {type(value).__name__}")
    return value


def decode_flight_reply(body: bytes) -> str:
    """A ``flight`` reply: the text of a flight dump, as
    :func:`~repro.obs.export.parse_flight_dump` reads one;
    :class:`WireDecodeError` for anything else."""
    try:
        text = body.decode("utf-8")
        parse_flight_dump(text)
    except (ValueError, RecursionError) as exc:
        raise WireDecodeError(f"{K_FLIGHT} reply is not a dump: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# Body codecs, one per envelope type that has structure
# ---------------------------------------------------------------------------


def encode_signature_body(group: Group, signature: Signature) -> bytes:
    """Body of a ``server-signature`` envelope: the bare output signature."""
    return signature.to_bytes(group)


def decode_signature_body(group: Group, body: bytes) -> Signature:
    return decode_value("signature body", Signature.from_bytes, group, body)


def encode_round_output_body(group: Group, output: RoundOutput) -> bytes:
    """Body of a ``round-output`` envelope: the certified output, whole."""
    return pack_fields(
        output.round_number,
        output.cleartext,
        output.participation,
        *[signature.to_bytes(group) for signature in output.signatures],
    )


def decode_round_output_body(group: Group, body: bytes) -> RoundOutput:
    round_number, cleartext, participation, *signed = unpack_typed(
        body, "ibib*", "round output"
    )
    if not signed:
        raise WireDecodeError("round output needs at least one signature")
    return RoundOutput(
        round_number=round_number,
        cleartext=cleartext,
        participation=participation,
        signatures=tuple(
            decode_value("round output signature", Signature.from_bytes, group, sig)
            for sig in signed
        ),
    )


def encode_consensus_body(view: int, digest: bytes) -> bytes:
    """Body of a ``leader-propose`` or ``server-vote`` envelope.

    Proposals and votes deliberately share one layout — ``(view,
    digest)`` — because a vote is the voter's counter-signature over the
    same statement the leader proposed.  The envelope's type tag and
    sender (both signature-covered) disambiguate the role.  The one
    decoder is :func:`repro.consensus.certificate.proposal_view_digest`.
    """
    return pack_fields(view, digest)


def encode_view_change_body(new_view: int, reason: str) -> bytes:
    """Body of a ``view-change`` envelope: the view to adopt, plus why."""
    return pack_fields(new_view, reason)


def decode_view_change_body(body: bytes) -> tuple[int, str]:
    new_view, reason = unpack_typed(body, "is", "view change body")
    return new_view, reason


def encode_round_done_body(group: Group, done) -> bytes:
    """Body of a ``round-done`` control frame: one server's report of a
    certified round (a :class:`repro.core.engine.RoundDone`)."""
    return pack_fields(
        done.round_number,
        1 if done.shuffle_requested else 0,
        encode_round_output_body(group, done.output),
        done.certificate.to_wire(group),
        done.proof.to_wire(group) if done.proof is not None else b"",
    )


def decode_round_done_body(group: Group, body: bytes) -> tuple:
    """The fields of a :class:`repro.core.engine.RoundDone`, in its order:
    ``(round_number, output, certificate, proof or None, shuffle_requested)``."""
    round_number, shuffle, output, certificate, proof = unpack_typed(
        body, "iibbb", "round-done"
    )
    return (
        round_number,
        decode_round_output_body(group, output),
        RoundCertificate.from_wire(group, certificate),
        EquivocationProof.from_wire(group, proof) if proof else None,
        bool(shuffle),
    )


def encode_disclosure_body(group: Group, disclosure: TraceDisclosure) -> bytes:
    """Body of an ``accusation-reveal`` envelope: one server's trace reveal.

    Signing this body is what makes trace equivocation attributable: a
    server that later denies its disclosed pair bits is contradicted by
    its own signature.
    """
    bits = {i: bit & 1 for i, bit in disclosure.pair_bits.items()}
    return pack_fields(
        disclosure.server_index,
        encode_keyed(disclosure.client_envelopes, partial(encode_envelope, group)),
        encode_int_pairs(bits),
    )


def decode_disclosure_body(group: Group, body: bytes) -> TraceDisclosure:
    server_index, envelopes, bits = unpack_typed(body, "ibb", "trace disclosure")
    return TraceDisclosure(
        server_index=server_index,
        client_envelopes=decode_keyed(
            envelopes, "b", "disclosed envelopes", partial(decode_envelope, group)
        ),
        pair_bits={i: bit & 1 for i, bit in decode_int_pairs(bits).items()},
    )


def encode_accusation_reveal_body(
    group: Group, bit_index: int, disclosure: TraceDisclosure
) -> bytes:
    """Body of an ``accusation-reveal`` envelope: witness bit + disclosure.

    The bit index rides inside the signed body so a server's reveal is
    bound to the exact position it answered for — it cannot later claim
    the disclosed bits belonged to a different witness bit.
    """
    return pack_fields(bit_index, encode_disclosure_body(group, disclosure))


def decode_accusation_reveal_body(
    group: Group, body: bytes
) -> tuple[int, TraceDisclosure]:
    bit_index, disclosure = unpack_typed(body, "ib", "accusation reveal")
    return bit_index, decode_disclosure_body(group, disclosure)


# ---------------------------------------------------------------------------
# Accusation-process payloads carried inside control frames
# ---------------------------------------------------------------------------


def encode_evidence(evidence: RoundEvidence) -> bytes:
    """One server's archived view of an accused round (trace input)."""
    range_items = [
        pack_fields(slot, *evidence.slot_bit_ranges[slot])
        for slot in sorted(evidence.slot_bit_ranges)
    ]
    return pack_fields(
        evidence.round_number,
        encode_int_list(evidence.final_list),
        encode_int_pairs(evidence.assignment),
        pack_fields(*evidence.server_ciphertexts),
        evidence.cleartext,
        evidence.total_bytes,
        pack_fields(*range_items),
    )


def decode_evidence(data: bytes) -> RoundEvidence:
    what = "round evidence"
    (
        round_number, packed_list, packed_assignment, packed_ciphertexts,
        cleartext, total_bytes, packed_ranges,
    ) = unpack_typed(data, "ibbbbib", what)  # fmt: skip
    slot_bit_ranges: dict[int, tuple[int, int]] = {}
    for item in unpack_typed(packed_ranges, "b*", what):
        slot, start, end = unpack_typed(item, "iii", "evidence slot range")
        slot_bit_ranges[slot] = (start, end)
    return RoundEvidence(
        round_number=round_number,
        final_list=decode_int_list(packed_list),
        assignment=decode_int_pairs(packed_assignment),
        server_ciphertexts=unpack_typed(packed_ciphertexts, "b*", what),
        cleartext=cleartext,
        total_bytes=total_bytes,
        slot_bit_ranges=slot_bit_ranges,
    )


def encode_rebuttal(group: Group, rebuttal: Rebuttal | None) -> bytes:
    """A client's rebuttal reply; empty bytes mean "no rebuttal"."""
    if rebuttal is None:
        return b""
    return pack_fields(
        rebuttal.server_index,
        group.element_to_bytes(rebuttal.dh_element),
        rebuttal.proof.t1,
        rebuttal.proof.t2,
        rebuttal.proof.s,
    )


def decode_rebuttal(group: Group, data: bytes) -> Rebuttal | None:
    if not data:
        return None
    server_index, element_bytes, t1, t2, s = unpack_typed(data, "ibiii", "rebuttal")
    return Rebuttal(
        server_index=server_index,
        dh_element=decode_value(
            "rebuttal DH element", group.element_from_bytes, element_bytes
        ),
        proof=DleqProof(t1=t1, t2=t2, s=s),
    )


def encode_int_list(values: Sequence[int]) -> bytes:
    """A bare int list: an inventory body, a round's submitters, a
    checkpoint's index lists (``b""`` when empty)."""
    return pack_fields(*[int(v) for v in values])


def decode_int_list(data: bytes) -> tuple[int, ...]:
    return tuple(unpack_typed(data, "i*", "int list"))


def encode_keyed(mapping: Mapping[int, object], encode=None) -> bytes:
    """An int-keyed map: one packed ``(key, value)`` item per entry, in key
    order, each value through ``encode`` when given."""
    return pack_fields(
        *[
            pack_fields(k, mapping[k] if encode is None else encode(mapping[k]))
            for k in sorted(mapping)
        ]
    )


def decode_keyed(data: bytes, code: str, what: str, decode=None) -> dict:
    """Invert :func:`encode_keyed`; ``code`` types the values.  Keys must
    strictly increase, so one map has one encoding."""
    items = unpack_typed(data, "b*", what)
    items = [unpack_typed(item, "i" + code, what) for item in items]
    keys = [key for key, _ in items]
    if keys != sorted(set(keys)):
        raise WireDecodeError(f"{what}: keys repeat or are out of order")
    return {key: value if decode is None else decode(value) for key, value in items}


def encode_int_pairs(pairs: Mapping[int, int]) -> bytes:
    """Helper for control frames carrying small int->int maps."""
    return encode_keyed(pairs)


def decode_int_pairs(data: bytes) -> dict[int, int]:
    return decode_keyed(data, "i", "int pairs")
