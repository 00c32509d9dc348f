"""Typed, signed protocol messages.

"All network messages are signed to ensure integrity and accountability"
(paper §3.3).  Every message exchanged in real-mode sessions is a
:class:`SignedEnvelope`: a type tag, the sender's name, the group's
self-certifying id, a round number, and an opaque body — all covered by a
commitment-form Schnorr signature under the sender's long-term key (the
commitment form is what lets a verifier fold a whole round's new
envelopes into one multi-exponentiation, see :func:`batch_verify_envelopes`).

**What the signature covers** (envelope v2, :func:`envelope_signed_payload`):
the four header fields and the *SHA-256 of the body*, never the body
itself.  A bulk round moves ~500 KiB bodies, and a Schnorr signature
hashes its message twice to sign (nonce, then challenge) and once per
evaluated check; signing the digest makes every large body cost one SHA-256 pass
per holder, and hands :mod:`repro.crypto.schnorr` ~150 bytes whatever
the body size.  This is how the original Dissent bulk protocol
authenticated bulk data (members sign descriptors carrying hashes of the
ciphertexts) and how this repo's output signatures always worked
(``output_digest``); it rests on SHA-256 collision resistance, which
commitments, certificate digests and the group id already assume.  The
rule has no size threshold: small bodies are hashed too, so there is one
signing path.  A verifier recomputes the digest from the bytes it holds —
it is not a wire field.

Bodies are built with the canonical field packer so signatures are
deterministic and unambiguous across nodes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.crypto import schnorr
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.schnorr import Signature, require_valid, sign
from repro.errors import InvalidSignature, ProtocolError
from repro.util.serialization import pack_fields

# Message type tags (one per protocol step).
CLIENT_CIPHERTEXT = "client-ciphertext"
SERVER_INVENTORY = "server-inventory"
SERVER_COMMIT = "server-commit"
SERVER_REVEAL = "server-reveal"
SERVER_SIGNATURE = "server-signature"
ROUND_OUTPUT = "round-output"
SHUFFLE_SUBMISSION = "shuffle-submission"
ACCUSATION_REVEAL = "accusation-reveal"
# Consensus control plane (leader rotation / round certificates).
LEADER_PROPOSE = "leader-propose"
SERVER_VOTE = "server-vote"
VIEW_CHANGE = "view-change"

_KNOWN_TYPES = {
    CLIENT_CIPHERTEXT,
    SERVER_INVENTORY,
    SERVER_COMMIT,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    ROUND_OUTPUT,
    SHUFFLE_SUBMISSION,
    ACCUSATION_REVEAL,
    LEADER_PROPOSE,
    SERVER_VOTE,
    VIEW_CHANGE,
}


def is_known_type(msg_type: str) -> bool:
    """Whether ``msg_type`` is one of the protocol's defined type tags."""
    return msg_type in _KNOWN_TYPES


def require_known_type(msg_type: str) -> None:
    """Raise :class:`ProtocolError` for a type tag outside the protocol."""
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {msg_type!r}")


def envelope_signed_payload(
    msg_type: str, sender: str, group_id: bytes, round_number: int, body: bytes
) -> bytes:
    """The exact bytes an envelope's signature covers — the one definition.

    Signing, scalar and batched verification, and certificate checks
    (which rebuild a vote's payload from public data) all come through
    here.  This is the only place an envelope body is hashed for a
    signature: one SHA-256 pass per call.
    """
    return pack_fields(
        "dissent.envelope.v2",
        msg_type,
        sender,
        group_id,
        round_number,
        hashlib.sha256(body).digest(),
    )


@dataclass(frozen=True)
class SignedEnvelope:
    """One signed protocol message."""

    msg_type: str
    sender: str
    group_id: bytes
    round_number: int
    body: bytes
    signature: Signature

    def __post_init__(self) -> None:
        # Enforced at construction so *decoded* envelopes are gated too: a
        # peer cannot inject an unvalidated type tag into dispatch by
        # putting it on the wire — the tag check used to live only in
        # :func:`make_envelope`, which a remote sender never runs locally.
        require_known_type(self.msg_type)

    def signed_payload(self) -> bytes:
        """The exact bytes the signature covers, computed once per object.

        The envelope is frozen, so the payload is a pure function of its
        fields; it is kept in the instance ``__dict__`` — not a dataclass
        field, so it stays out of ``==``, ``repr`` and the codecs, and
        ``dataclasses.replace`` builds a fresh object without it.
        """
        payload = self.__dict__.get("_signed_payload")
        if payload is None:
            payload = self.__dict__["_signed_payload"] = envelope_signed_payload(
                self.msg_type, self.sender, self.group_id, self.round_number, self.body
            )
        return payload

    def verify(self, sender_key: PublicKey) -> None:
        """Raise :class:`InvalidSignature` if the envelope is not authentic.

        ``sender_key`` is a roster key the verifier meets every round, so
        it goes through the fixed-base tables like the batched checks.
        """
        require_valid(
            sender_key,
            self.signed_payload(),
            self.signature,
            hot_bases=(sender_key.y,),
        )


def batch_verify_envelopes(
    items: Sequence[tuple[SignedEnvelope, PublicKey]],
    hot_bases: Sequence[int] = (),
    rng=None,
) -> tuple[int, ...]:
    """Indices of envelopes whose signatures fail, batched.

    The per-round verification workhorse: a server checking N client
    ciphertexts (or M peer commits/reveals/inventories, or a client
    checking M output signatures) passes all of them here.  When
    everything is authentic — the common case — the envelopes this
    process has not accepted before cost one random-linear-combination
    multi-exponentiation (or, for a handful of roster keys, one
    fixed-base equation each; see :func:`repro.crypto.schnorr.batch_verify`)
    and the ones it has cost nothing: three co-hosted servers each
    handed the same three inventories evaluate them once.  A failing
    batch bisects down to scalar :func:`repro.crypto.schnorr.verify`
    calls, so the returned culprit set is exactly what per-envelope
    verification would reject, whatever was accepted beforehand.

    Callers screen structural fields (type, round, group id, body length)
    *before* batching: a stale or mistyped envelope must be rejected by
    its metadata without spending signature work on it.

    Args:
        hot_bases: long-term key elements worth routing through the cached
            fixed-base tables (the sender keys this verifier sees every
            round).
    """
    sig_items = [
        (sender_key, envelope.signed_payload(), envelope.signature)
        for envelope, sender_key in items
    ]
    if schnorr.batch_verify(sig_items, hot_bases=hot_bases, rng=rng):
        return ()
    return schnorr.find_invalid(
        sig_items, hot_bases=hot_bases, rng=rng, known_failed=True
    )


def require_envelopes_valid(
    items: Sequence[tuple[SignedEnvelope, PublicKey]],
    hot_bases: Sequence[int] = (),
    rng=None,
) -> None:
    """Raise :class:`InvalidSignature` naming every forged sender."""
    invalid = batch_verify_envelopes(items, hot_bases=hot_bases, rng=rng)
    if invalid:
        senders = ", ".join(items[i][0].sender for i in invalid)
        raise InvalidSignature(f"envelope signature invalid from: {senders}")


def make_envelope(
    key: PrivateKey,
    msg_type: str,
    sender: str,
    group_id: bytes,
    round_number: int,
    body: bytes,
) -> SignedEnvelope:
    """Sign and wrap a message body."""
    require_known_type(msg_type)
    payload = envelope_signed_payload(msg_type, sender, group_id, round_number, body)
    envelope = SignedEnvelope(
        msg_type=msg_type,
        sender=sender,
        group_id=group_id,
        round_number=round_number,
        body=body,
        signature=sign(key, payload),
    )
    # The maker has just hashed the body; a holder of this same object
    # (an in-process peer, the maker checking its own batch) need not.
    envelope.__dict__["_signed_payload"] = payload
    return envelope
