"""Scheduling via the verifiable key shuffle (paper §3.10).

Before DC-net rounds begin, every client submits a fresh pseudonym public
key, onion-encrypted under ephemeral per-session shuffle keys that each
server publishes (signed by its long-term identity key).  The mix cascade
permutes and strips layers server by server; the resulting ordered list of
bare pseudonym keys *is* the slot schedule: slot s belongs to whoever holds
the private half of output key s, and nobody — client or server — knows the
permutation as long as one server is honest.

The same machinery runs **accusation shuffles**: width-W vectors carrying
embedded accusation messages (or empty cover messages from everyone else).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.config import GroupDefinition
from repro.crypto import schnorr, shuffle
from repro.crypto.elgamal import Ciphertext
from repro.crypto.groups import Group
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.schnorr import Signature, sign as schnorr_sign
from repro.crypto.shuffle import CipherVector, ShuffleTranscript
from repro.errors import CryptoError, ShuffleError, WireDecodeError
from repro.net.message import (
    SHUFFLE_SUBMISSION,
    SignedEnvelope,
    batch_verify_envelopes,
    make_envelope,
)
from repro.util.serialization import decode_value, pack_fields, unpack_typed


@dataclass(frozen=True)
class ShuffleSessionKey:
    """A server's ephemeral mix key, signed by its long-term identity."""

    server_index: int
    public: PublicKey
    signature: Signature

    def signed_payload(self, purpose: bytes) -> bytes:
        return pack_fields(
            "dissent.shuffle-key.v1", self.server_index, purpose, self.public.to_bytes()
        )


def make_session_key(
    identity: PrivateKey,
    server_index: int,
    purpose: bytes,
    rng: random.Random | None = None,
) -> tuple[PrivateKey, ShuffleSessionKey]:
    """Generate and sign a fresh per-session shuffle key pair."""
    ephemeral = PrivateKey.generate(identity.group, rng)
    payload = pack_fields(
        "dissent.shuffle-key.v1", server_index, purpose, ephemeral.public.to_bytes()
    )
    return ephemeral, ShuffleSessionKey(
        server_index=server_index,
        public=ephemeral.public,
        signature=schnorr_sign(identity, payload),
    )


def verify_session_keys(
    definition: GroupDefinition,
    session_keys: Sequence[ShuffleSessionKey],
    purpose: bytes,
) -> list[PublicKey]:
    """Validate every server's signed ephemeral key; returns them in order.

    All M signatures are folded into one multi-exponentiation (the
    long-term server keys walk the tables members pin); a failing batch
    bisects to the exact forger, so the verdict matches per-key checks.
    """
    if len(session_keys) != definition.num_servers:
        raise ShuffleError("need exactly one shuffle key per server")
    for j, session_key in enumerate(session_keys):
        if session_key.server_index != j:
            raise ShuffleError("shuffle keys out of server order")
    items = [
        (
            definition.server_keys[j],
            session_key.signed_payload(purpose),
            session_key.signature,
        )
        for j, session_key in enumerate(session_keys)
    ]
    if not schnorr.batch_verify(items):
        culprit = schnorr.find_invalid(items, known_failed=True)[0]
        raise ShuffleError(f"server {culprit} shuffle key signature invalid")
    return [session_key.public for session_key in session_keys]


# ---------------------------------------------------------------------------
# Signed shuffle submissions
# ---------------------------------------------------------------------------

#: Shuffle submissions precede DC-net rounds; their envelopes carry this
#: sentinel round number.  Run freshness comes from :func:`shuffle_run_id`,
#: which every submission embeds in its signed body.
SCHEDULING_ROUND = 0

_RUN_ID_DOMAIN = b"dissent.shuffle-run-id.v1"


def shuffle_run_id(purpose: bytes, shuffle_publics: Sequence[PublicKey]) -> bytes:
    """Unique identifier of one shuffle run.

    Hashes the purpose together with the servers' *ephemeral* session
    keys, which are fresh per run — so a submission signed over this id
    cannot be replayed into a later session of the same group (where the
    static group id and purpose repeat but the mix keys do not).
    """
    from repro.crypto.hashing import sha256

    return sha256(
        _RUN_ID_DOMAIN, purpose, *[public.to_bytes() for public in shuffle_publics]
    )


def pack_cipher_vector(group: Group, vector: CipherVector) -> bytes:
    """Canonical byte encoding of one shuffle input vector."""
    return pack_fields(*[ct.to_bytes(group) for ct in vector])


def unpack_cipher_vector(group: Group, data: bytes) -> CipherVector:
    """Invert :func:`pack_cipher_vector`, validating every element;
    :class:`WireDecodeError` if malformed."""
    return tuple(
        decode_value("cipher vector element", Ciphertext.from_bytes, group, item)
        for item in unpack_typed(data, "bb*", "cipher vector")
    )


def sign_shuffle_submission(
    key: PrivateKey,
    sender: str,
    group_id: bytes,
    group: Group,
    vector: CipherVector,
    run_id: bytes,
) -> SignedEnvelope:
    """Wrap a client's shuffle input in a signed envelope.

    Signing the onion-encrypted submission binds it to the client's
    long-term identity, so a malformed or duplicated input is attributable
    before the cascade spends any mixing work on it; the embedded
    :func:`shuffle_run_id` pins it to *this* run's ephemeral mix keys so a
    stale submission cannot be replayed into a later session.
    """
    return make_envelope(
        key,
        SHUFFLE_SUBMISSION,
        sender,
        group_id,
        SCHEDULING_ROUND,
        pack_fields(run_id, pack_cipher_vector(group, vector)),
    )


def open_shuffle_submissions(
    definition: GroupDefinition,
    envelopes: Sequence[SignedEnvelope],
    run_id: bytes,
) -> list[CipherVector]:
    """Screen, batch-verify, and decode all signed shuffle submissions.

    One multi-exponentiation covers every client's envelope signature
    (client long-term keys walk the tables their servers pin);
    a failing batch bisects to the exact forged submissions and raises
    naming them.  Returns the decoded cipher vectors in client order.
    """
    if len(envelopes) != definition.num_clients:
        raise ShuffleError("need exactly one shuffle submission per client")
    group = definition.group
    group_id = definition.group_id()
    for i, envelope in enumerate(envelopes):
        if envelope.msg_type != SHUFFLE_SUBMISSION:
            raise ShuffleError("non-submission envelope in shuffle setup")
        if envelope.group_id != group_id:
            raise ShuffleError("shuffle submission for a different group")
        if envelope.round_number != SCHEDULING_ROUND:
            raise ShuffleError("shuffle submission carries a stale round number")
        if envelope.sender != definition.client_name(i):
            raise ShuffleError("shuffle submissions out of client order")
    items = [
        (envelope, definition.client_keys[i])
        for i, envelope in enumerate(envelopes)
    ]
    invalid = batch_verify_envelopes(items)
    if invalid:
        culprits = ", ".join(envelopes[i].sender for i in invalid)
        raise ShuffleError(f"shuffle submission signature invalid: {culprits}")
    # Bodies are interpreted only after signatures check out, so a bad
    # run id or a malformed body is attributed to a *proven* sender, not
    # to a forger spoofing an honest client's name.
    vectors: list[CipherVector] = []
    for envelope in envelopes:
        try:
            embedded_run_id, body = unpack_typed(
                envelope.body, "bb", "shuffle submission"
            )
            vector = unpack_cipher_vector(group, body)
        except WireDecodeError as exc:
            raise ShuffleError(
                f"malformed shuffle submission from {envelope.sender}: {exc}"
            ) from exc
        if embedded_run_id != run_id:
            raise ShuffleError(
                f"shuffle submission from {envelope.sender} is bound to a "
                "different run (replay?)"
            )
        vectors.append(vector)
    return vectors


@dataclass(frozen=True)
class KeyShuffleResult:
    """Outcome of the scheduling shuffle."""

    slot_elements: tuple[int, ...]
    transcript: ShuffleTranscript


def _verified_cascade(
    definition: GroupDefinition,
    shuffle_privates: Sequence[PrivateKey],
    submissions: Sequence[CipherVector],
    context: bytes,
    rng: random.Random | None,
    what: str,
) -> ShuffleTranscript:
    """Run the cascade and verify its transcript, as an honest server
    would, over one set of generators ``h_0 … h_N`` derived for both.
    A transcript that fails names the server whose step failed first."""
    generators = shuffle._generators(definition.group, len(submissions) + 1)
    transcript = shuffle.run_cascade(
        list(shuffle_privates), list(submissions), context, rng, generators
    )
    publics = [key.public for key in shuffle_privates]
    failed = shuffle.failing_step(publics, transcript, context, generators)
    if failed is not None:
        raise ShuffleError(
            f"{what} transcript failed verification at server {failed}'s step"
        )
    return transcript


def run_key_shuffle(
    definition: GroupDefinition,
    shuffle_privates: Sequence[PrivateKey],
    submissions: Sequence[CipherVector],
    context: bytes = b"key-shuffle",
    rng: random.Random | None = None,
) -> KeyShuffleResult:
    """Drive the cascade over pseudonym-key submissions and verify it.

    Every server is expected to verify the transcript independently before
    accepting the schedule; this driver performs that verification once and
    raises if any step fails, mirroring an honest server's behaviour.
    """
    if len(submissions) == 0:
        raise ShuffleError("key shuffle needs at least one submission")
    transcript = _verified_cascade(
        definition, shuffle_privates, submissions, context, rng, "key shuffle"
    )
    elements = transcript.outputs(definition.group)
    return KeyShuffleResult(slot_elements=tuple(elements), transcript=transcript)


@dataclass(frozen=True)
class MessageShuffleResult:
    """Outcome of a general message shuffle (accusations etc.)."""

    messages: tuple[bytes, ...]
    transcript: ShuffleTranscript


def run_message_shuffle(
    definition: GroupDefinition,
    shuffle_privates: Sequence[PrivateKey],
    submissions: Sequence[CipherVector],
    context: bytes = b"message-shuffle",
    rng: random.Random | None = None,
) -> MessageShuffleResult:
    """Drive the cascade over embedded-message vectors and decode outputs.

    Undecodable outputs (a malformed submission) come back as empty
    messages rather than aborting the whole shuffle — one bad client must
    not suppress everyone else's accusations.  Only a decoding failure
    reads that way; any other exception is a bug and propagates.
    """
    transcript = _verified_cascade(
        definition, shuffle_privates, submissions, context, rng, "message shuffle"
    )
    group = definition.group
    messages: list[bytes] = []
    for vector in transcript.output_vectors(group):
        try:
            messages.append(shuffle.decode_message_output(group, vector))
        except (ShuffleError, CryptoError):
            messages.append(b"")
    return MessageShuffleResult(messages=tuple(messages), transcript=transcript)
