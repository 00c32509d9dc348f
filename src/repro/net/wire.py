"""Canonical wire format: framing and body codecs for every envelope type.

Everything a Dissent node puts on a socket is a **frame**: a 4-byte
big-endian length prefix followed by that many payload bytes, with a hard
cap (:data:`MAX_FRAME_BYTES`) so a malicious peer cannot make a node
buffer unbounded input.  Frame payloads are either routed control
messages (:func:`encode_routed`) or serialized
:class:`~repro.net.message.SignedEnvelope` objects.

Every envelope body that crosses the wire has a canonical codec here, so
``decode(encode(x)) == x`` holds field for field — including the
signature, which covers the exact bytes both sides reconstruct:

================== ====================================================
``msg_type``        body codec
================== ====================================================
client-ciphertext   raw masked vector bytes (no structure)
server-inventory    :func:`encode_inventory_body`
server-commit       raw commitment hash bytes
server-reveal       raw ciphertext bytes
server-signature    :func:`encode_signature_body`
round-output        :func:`encode_round_output_body`
shuffle-submission  :func:`encode_shuffle_submission_body`
accusation-reveal   :func:`encode_disclosure_body`
leader-propose      :func:`encode_consensus_body`
server-vote         :func:`encode_consensus_body`
view-change         :func:`encode_view_change_body`
================== ====================================================

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

from repro.core.accusation import Accusation, Rebuttal, RoundEvidence, TraceDisclosure
from repro.core.rounds import RoundOutput
from repro.crypto.groups import Group
from repro.crypto.proofs import DleqProof
from repro.crypto.schnorr import Signature
from repro.errors import (
    AccusationError,
    CryptoError,
    FrameTooLarge,
    FrameTruncated,
    InvalidSignature,
    UnknownMessageType,
    WireDecodeError,
)
from repro.net.message import SignedEnvelope, is_known_type
from repro.util.serialization import (
    bytes_field_header,
    bytes_field_span,
    pack_fields,
    unpack_fields,
    unpack_prefix,
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
_ROUTED_MAGIC = "dissent.wire-routed.v1"

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
# Typed unpack helpers (adversarial bytes must fail typed, not crash)
# ---------------------------------------------------------------------------


def _unpack(data: bytes | memoryview, what: str) -> list:
    try:
        return unpack_fields(data)
    except ValueError as exc:
        raise WireDecodeError(f"malformed {what}: {exc}") from exc


def _take(fields: list, index: int, kind: type, what: str):
    if index >= len(fields):
        raise WireDecodeError(f"{what}: missing field {index}")
    value = fields[index]
    if not isinstance(value, kind):
        raise WireDecodeError(
            f"{what}: field {index} is {type(value).__name__}, "
            f"expected {kind.__name__}"
        )
    return value


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
    fields = _unpack(data, "envelope")
    if len(fields) != 7:
        raise WireDecodeError(f"envelope has {len(fields)} fields, expected 7")
    magic = _take(fields, 0, str, "envelope")
    if magic != _ENVELOPE_MAGIC:
        raise WireDecodeError(f"envelope magic {magic!r} unsupported")
    msg_type = _take(fields, 1, str, "envelope")
    if not is_known_type(msg_type):
        raise UnknownMessageType(f"unknown message type {msg_type!r}")
    sender = _take(fields, 2, str, "envelope")
    group_id = _take(fields, 3, bytes, "envelope")
    round_number = _take(fields, 4, int, "envelope")
    body = _take(fields, 5, bytes, "envelope")
    sig_bytes = _take(fields, 6, bytes, "envelope")
    try:
        signature = Signature.from_bytes(group, sig_bytes)
    except InvalidSignature as exc:
        raise WireDecodeError(f"envelope signature encoding: {exc}") from exc
    return SignedEnvelope(
        msg_type=msg_type,
        sender=sender,
        group_id=group_id,
        round_number=round_number,
        body=body,
        signature=signature,
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


def encode_routed(
    to: str, sender: str, kind: str, seq: int, body: bytes, trace: bytes = b""
) -> bytes:
    # The six-field form is emitted whenever there is no trace context,
    # so frames with tracing disabled are byte-identical to pre-tracing
    # builds and old decoders keep working.
    if not trace:
        return pack_fields(_ROUTED_MAGIC, to, sender, kind, seq, body)
    return pack_fields(_ROUTED_MAGIC, to, sender, kind, seq, body, trace)


def encode_routed_envelope(
    group: Group, to: str, sender: str, envelope: SignedEnvelope, trace: bytes = b""
) -> bytes:
    """``encode_routed(to, sender, "envelope", 0, encode_envelope(...), trace)``
    byte for byte, with the envelope body copied once instead of three times."""
    inner = _envelope_parts(group, envelope)
    return b"".join(
        (
            _ROUTED_PREFIX,
            pack_fields(to, sender),
            _ENVELOPE_KIND_SEQ0,
            bytes_field_header(sum(map(len, inner))),
            *inner,
            pack_fields(trace) if trace else b"",
        )
    )


def decode_routed(data: bytes) -> RoutedFrame:
    """Parse one routed frame; the body of an envelope frame stays a view.

    The five routing fields are decoded in place and the body field is
    only *located*: for :data:`ENVELOPE_KIND` it comes back as a
    ``memoryview`` into ``data`` (the hub forwards ``data`` itself and
    never looks inside; a node hands the view to :func:`decode_envelope`),
    for every other kind as ``bytes``, exactly as before.
    """
    what = "routed frame"
    try:
        fields, offset = unpack_prefix(data, 5)
        start, end = bytes_field_span(data, offset)
        rest = unpack_fields(data[end:]) if end < len(data) else ()
    except ValueError as exc:
        raise WireDecodeError(f"malformed {what}: {exc}") from exc
    if len(rest) > 1:
        raise WireDecodeError(
            f"routed frame has {6 + len(rest)} fields, expected 6 or 7"
        )
    magic = _take(fields, 0, str, what)
    if magic != _ROUTED_MAGIC:
        raise WireDecodeError(f"routed frame magic {magic!r} unsupported")
    to = _take(fields, 1, str, what)
    sender = _take(fields, 2, str, what)
    kind = _take(fields, 3, str, what)
    seq = _take(fields, 4, int, what)
    trace = _take(rest, 0, bytes, what) if rest else b""
    if kind == ENVELOPE_KIND:
        body = memoryview(data)[start:end]
    else:
        body = data[start:end]
    return RoutedFrame(to, sender, kind, seq, body, trace)


# ---------------------------------------------------------------------------
# Body codecs, one per envelope type that has structure
# ---------------------------------------------------------------------------


def encode_inventory_body(client_indices: Sequence[int]) -> bytes:
    """The exact body :meth:`DissentServer.make_inventory` signs."""
    indices = [int(i) for i in client_indices]
    return pack_fields(*indices) if indices else b""


def decode_inventory_body(body: bytes) -> tuple[int, ...]:
    if not body:
        return ()
    fields = _unpack(body, "inventory body")
    indices = []
    for position, value in enumerate(fields):
        if not isinstance(value, int):
            raise WireDecodeError(
                f"inventory body: field {position} is not an integer"
            )
        indices.append(value)
    return tuple(indices)


def encode_signature_body(group: Group, signature: Signature) -> bytes:
    """Body of a ``server-signature`` envelope: the bare output signature."""
    return signature.to_bytes(group)


def decode_signature_body(group: Group, body: bytes) -> Signature:
    try:
        return Signature.from_bytes(group, body)
    except InvalidSignature as exc:
        raise WireDecodeError(f"signature body: {exc}") from exc


def encode_round_output_body(group: Group, output: RoundOutput) -> bytes:
    """Body of a ``round-output`` envelope: the certified output, whole."""
    return pack_fields(
        output.round_number,
        output.cleartext,
        output.participation,
        *[signature.to_bytes(group) for signature in output.signatures],
    )


def decode_round_output_body(group: Group, body: bytes) -> RoundOutput:
    fields = _unpack(body, "round output")
    if len(fields) < 4:
        raise WireDecodeError("round output needs at least one signature")
    round_number = _take(fields, 0, int, "round output")
    cleartext = _take(fields, 1, bytes, "round output")
    participation = _take(fields, 2, int, "round output")
    signatures = []
    for position in range(3, len(fields)):
        sig_bytes = _take(fields, position, bytes, "round output")
        try:
            signatures.append(Signature.from_bytes(group, sig_bytes))
        except InvalidSignature as exc:
            raise WireDecodeError(f"round output signature: {exc}") from exc
    return RoundOutput(
        round_number=round_number,
        cleartext=cleartext,
        participation=participation,
        signatures=tuple(signatures),
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
    fields = _unpack(body, "view change body")
    if len(fields) != 2:
        raise WireDecodeError("view change body needs exactly 2 fields")
    return (
        _take(fields, 0, int, "view change body"),
        _take(fields, 1, str, "view change body"),
    )


def encode_certificate_body(group: Group, certificate) -> bytes:
    """Canonical bytes of a :class:`repro.consensus.RoundCertificate`."""
    return certificate.to_wire(group)


def decode_certificate_body(group: Group, body: bytes):
    from repro.consensus.certificate import RoundCertificate
    from repro.errors import InvalidProof

    try:
        return RoundCertificate.from_wire(group, body)
    except (InvalidProof, InvalidSignature) as exc:
        raise WireDecodeError(f"round certificate: {exc}") from exc


def encode_equivocation_proof_body(group: Group, proof) -> bytes:
    """Canonical bytes of a :class:`repro.consensus.EquivocationProof`."""
    return proof.to_wire(group)


def decode_equivocation_proof_body(group: Group, body: bytes):
    from repro.consensus.certificate import EquivocationProof
    from repro.errors import InvalidProof

    try:
        return EquivocationProof.from_wire(group, body)
    except (InvalidProof, InvalidSignature) as exc:
        raise WireDecodeError(f"equivocation proof: {exc}") from exc


def encode_round_done_body(group: Group, done) -> bytes:
    """Body of a ``round-done`` control frame: one server's report of a
    certified round (a :class:`repro.core.engine.RoundDone`)."""
    return pack_fields(
        done.round_number,
        1 if done.shuffle_requested else 0,
        encode_round_output_body(group, done.output),
        encode_certificate_body(group, done.certificate),
        encode_equivocation_proof_body(group, done.proof)
        if done.proof is not None
        else b"",
    )


def decode_round_done_body(group: Group, body: bytes) -> tuple:
    """The fields of a :class:`repro.core.engine.RoundDone`, in its order:
    ``(round_number, output, certificate, proof or None, shuffle_requested)``."""
    what = "round-done"
    fields = _unpack(body, what)
    if len(fields) != 5:
        raise WireDecodeError(f"{what} needs exactly 5 fields, got {len(fields)}")
    proof = _take(fields, 4, bytes, what)
    return (
        _take(fields, 0, int, what),
        decode_round_output_body(group, _take(fields, 2, bytes, what)),
        decode_certificate_body(group, _take(fields, 3, bytes, what)),
        decode_equivocation_proof_body(group, proof) if proof else None,
        bool(_take(fields, 1, int, what)),
    )


def encode_shuffle_submission_body(
    group: Group, run_id: bytes, vector
) -> bytes:
    """Body of a ``shuffle-submission`` envelope (run id + cipher vector)."""
    from repro.core.keyshuffle import pack_cipher_vector

    return pack_fields(run_id, pack_cipher_vector(group, vector))


def decode_shuffle_submission_body(group: Group, body: bytes):
    """Returns ``(run_id, cipher_vector)`` with every element validated."""
    from repro.core.keyshuffle import unpack_cipher_vector
    from repro.errors import ShuffleError

    fields = _unpack(body, "shuffle submission")
    if len(fields) != 2:
        raise WireDecodeError("shuffle submission body needs exactly 2 fields")
    run_id = _take(fields, 0, bytes, "shuffle submission")
    packed = _take(fields, 1, bytes, "shuffle submission")
    try:
        return run_id, unpack_cipher_vector(group, packed)
    except (ShuffleError, ValueError) as exc:
        raise WireDecodeError(f"shuffle submission vector: {exc}") from exc


def encode_disclosure_body(group: Group, disclosure: TraceDisclosure) -> bytes:
    """Body of an ``accusation-reveal`` envelope: one server's trace reveal.

    Signing this body is what makes trace equivocation attributable: a
    server that later denies its disclosed pair bits is contradicted by
    its own signature.
    """
    client_items: list[bytes] = []
    for client_index in sorted(disclosure.client_envelopes):
        client_items.append(
            pack_fields(
                client_index,
                encode_envelope(group, disclosure.client_envelopes[client_index]),
            )
        )
    bit_items = [
        pack_fields(client_index, disclosure.pair_bits[client_index] & 1)
        for client_index in sorted(disclosure.pair_bits)
    ]
    return pack_fields(
        disclosure.server_index,
        pack_fields(*client_items) if client_items else b"",
        pack_fields(*bit_items) if bit_items else b"",
    )


def decode_disclosure_body(group: Group, body: bytes) -> TraceDisclosure:
    fields = _unpack(body, "trace disclosure")
    if len(fields) != 3:
        raise WireDecodeError("trace disclosure body needs exactly 3 fields")
    server_index = _take(fields, 0, int, "trace disclosure")
    packed_envelopes = _take(fields, 1, bytes, "trace disclosure")
    packed_bits = _take(fields, 2, bytes, "trace disclosure")
    client_envelopes: dict[int, SignedEnvelope] = {}
    if packed_envelopes:
        for item in _unpack(packed_envelopes, "trace disclosure envelopes"):
            if not isinstance(item, bytes):
                raise WireDecodeError("trace disclosure envelope item not bytes")
            pair = _unpack(item, "trace disclosure envelope item")
            if len(pair) != 2:
                raise WireDecodeError("trace disclosure envelope item malformed")
            index = _take(pair, 0, int, "trace disclosure envelope item")
            client_envelopes[index] = decode_envelope(
                group, _take(pair, 1, bytes, "trace disclosure envelope item")
            )
    pair_bits: dict[int, int] = {}
    if packed_bits:
        for item in _unpack(packed_bits, "trace disclosure bits"):
            if not isinstance(item, bytes):
                raise WireDecodeError("trace disclosure bit item not bytes")
            pair = _unpack(item, "trace disclosure bit item")
            if len(pair) != 2:
                raise WireDecodeError("trace disclosure bit item malformed")
            index = _take(pair, 0, int, "trace disclosure bit item")
            pair_bits[index] = _take(pair, 1, int, "trace disclosure bit item") & 1
    return TraceDisclosure(
        server_index=server_index,
        client_envelopes=client_envelopes,
        pair_bits=pair_bits,
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
    fields = _unpack(body, "accusation reveal")
    if len(fields) != 2:
        raise WireDecodeError("accusation reveal body needs exactly 2 fields")
    bit_index = _take(fields, 0, int, "accusation reveal")
    disclosure = decode_disclosure_body(
        group, _take(fields, 1, bytes, "accusation reveal")
    )
    return bit_index, disclosure


# ---------------------------------------------------------------------------
# Accusation-process payloads carried inside control frames
# ---------------------------------------------------------------------------


def encode_accusation(group: Group, accusation: Accusation) -> bytes:
    return accusation.to_bytes(group)


def decode_accusation(group: Group, data: bytes) -> Accusation:
    try:
        return Accusation.from_bytes(group, data)
    except AccusationError as exc:
        raise WireDecodeError(f"accusation: {exc}") from exc


def encode_evidence(evidence: RoundEvidence) -> bytes:
    """One server's archived view of an accused round (trace input)."""
    assignment_items = [
        pack_fields(i, evidence.assignment[i]) for i in sorted(evidence.assignment)
    ]
    range_items = [
        pack_fields(slot, *evidence.slot_bit_ranges[slot])
        for slot in sorted(evidence.slot_bit_ranges)
    ]
    return pack_fields(
        evidence.round_number,
        pack_fields(*[int(i) for i in evidence.final_list])
        if evidence.final_list
        else b"",
        pack_fields(*assignment_items) if assignment_items else b"",
        pack_fields(*list(evidence.server_ciphertexts)),
        evidence.cleartext,
        evidence.total_bytes,
        pack_fields(*range_items) if range_items else b"",
    )


def decode_evidence(data: bytes) -> RoundEvidence:
    fields = _unpack(data, "round evidence")
    if len(fields) != 7:
        raise WireDecodeError("round evidence needs exactly 7 fields")
    round_number = _take(fields, 0, int, "round evidence")
    packed_list = _take(fields, 1, bytes, "round evidence")
    packed_assignment = _take(fields, 2, bytes, "round evidence")
    packed_ciphertexts = _take(fields, 3, bytes, "round evidence")
    cleartext = _take(fields, 4, bytes, "round evidence")
    total_bytes = _take(fields, 5, int, "round evidence")
    packed_ranges = _take(fields, 6, bytes, "round evidence")
    final_list = decode_inventory_body(packed_list)
    assignment: dict[int, int] = {}
    if packed_assignment:
        for item in _unpack(packed_assignment, "evidence assignment"):
            if not isinstance(item, bytes):
                raise WireDecodeError("evidence assignment item not bytes")
            pair = _unpack(item, "evidence assignment item")
            if len(pair) != 2:
                raise WireDecodeError("evidence assignment item malformed")
            assignment[_take(pair, 0, int, "assignment")] = _take(
                pair, 1, int, "assignment"
            )
    ciphertexts: list[bytes] = []
    for item in _unpack(packed_ciphertexts, "evidence ciphertexts"):
        if not isinstance(item, bytes):
            raise WireDecodeError("evidence ciphertext item not bytes")
        ciphertexts.append(item)
    slot_bit_ranges: dict[int, tuple[int, int]] = {}
    if packed_ranges:
        for item in _unpack(packed_ranges, "evidence slot ranges"):
            if not isinstance(item, bytes):
                raise WireDecodeError("evidence slot range item not bytes")
            triple = _unpack(item, "evidence slot range item")
            if len(triple) != 3:
                raise WireDecodeError("evidence slot range item malformed")
            slot_bit_ranges[_take(triple, 0, int, "slot range")] = (
                _take(triple, 1, int, "slot range"),
                _take(triple, 2, int, "slot range"),
            )
    return RoundEvidence(
        round_number=round_number,
        final_list=final_list,
        assignment=assignment,
        server_ciphertexts=ciphertexts,
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
    fields = _unpack(data, "rebuttal")
    if len(fields) != 5:
        raise WireDecodeError("rebuttal needs exactly 5 fields")
    server_index = _take(fields, 0, int, "rebuttal")
    element_bytes = _take(fields, 1, bytes, "rebuttal")
    try:
        dh_element = group.element_from_bytes(element_bytes)
    except CryptoError as exc:
        raise WireDecodeError(f"rebuttal DH element: {exc}") from exc
    return Rebuttal(
        server_index=server_index,
        dh_element=dh_element,
        proof=DleqProof(
            t1=_take(fields, 2, int, "rebuttal"),
            t2=_take(fields, 3, int, "rebuttal"),
            s=_take(fields, 4, int, "rebuttal"),
        ),
    )


def encode_int_list(values: Sequence[int]) -> bytes:
    """Helper for control frames carrying bare index lists."""
    return pack_fields(*[int(v) for v in values]) if values else b""


def decode_int_list(data: bytes) -> tuple[int, ...]:
    return decode_inventory_body(data)


def encode_int_pairs(pairs: Mapping[int, int]) -> bytes:
    """Helper for control frames carrying small int->int maps."""
    items = [pack_fields(k, pairs[k]) for k in sorted(pairs)]
    return pack_fields(*items) if items else b""


def decode_int_pairs(data: bytes) -> dict[int, int]:
    result: dict[int, int] = {}
    if not data:
        return result
    for item in _unpack(data, "int pairs"):
        if not isinstance(item, bytes):
            raise WireDecodeError("int pair item not bytes")
        pair = _unpack(item, "int pair item")
        if len(pair) != 2:
            raise WireDecodeError("int pair item malformed")
        result[_take(pair, 0, int, "int pair")] = _take(pair, 1, int, "int pair")
    return result


def encode_telemetry_body(snapshot: Mapping) -> bytes:
    """Body of the ``telemetry`` control reply: a registry snapshot.

    Snapshots are nested dictionaries of counters, gauges, and histogram
    states (:meth:`repro.obs.MetricsRegistry.snapshot`); canonical JSON
    (sorted keys, no whitespace) keeps the encoding deterministic.
    """
    try:
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":")).encode()
    except (TypeError, ValueError) as exc:
        raise WireDecodeError(f"telemetry snapshot not JSON-encodable: {exc}")


def decode_telemetry_body(body: bytes) -> dict:
    try:
        value = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireDecodeError(f"telemetry body is not valid JSON: {exc}")
    if not isinstance(value, dict):
        raise WireDecodeError(
            f"telemetry body decodes to {type(value).__name__}, expected a dict"
        )
    return value
