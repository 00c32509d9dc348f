"""Verifiable DC-net ciphertexts (Verdict's ElGamal-style construction).

In an XOR DC-net nothing stops an anonymous member from XOR-ing garbage
into someone else's slot; blame is *reactive* (paper §3.9).  Verdict
(Corrigan-Gibbs, Wolinsky, Ford) makes ciphertexts *proactively*
verifiable: every contribution carries a NIZK of well-formedness that
servers check before combining, so a disruptor is identified in the same
round it misbehaves.

The ElGamal-style instantiation over the existing Schnorr group:

* Servers hold keys ``y_j`` with public ``Y_j = g**y_j`` and combined key
  ``Y = prod Y_j``.
* Each client submits a fresh ElGamal pair ``(a, b) = (g**r, Y**r * m)``
  where ``m`` is the identity element for non-owners and the embedded
  message chunk for the slot owner.
* The attached proof is the disjunction (:func:`repro.crypto.proofs.prove_dleq_or`)

      "log_g(a) = log_Y(b)  —  (a, b) encrypts the identity"
      OR
      "I know the discrete log of the slot's pseudonym key K"

  Non-owners prove the first branch with witness ``r``; the owner proves
  the second with its pseudonym secret.  The transcript hides which branch
  was real, so submitting remains anonymous — but a disruptor (non-owner
  with ``m != 1``) holds *neither* witness and cannot produce a proof.
* Server ``j`` contributes the decryption share ``A**y_j`` for the product
  ``A = prod a_i``, proving ``log_g(Y_j) = log_A(share)`` with a plain
  Chaum-Pedersen DLEQ — a server that submits garbage is equally named.
* The round plaintext is ``B * prod(share_j)**-1`` with ``B = prod b_i``.

Payloads wider than one group element are carried as a vector of
independently proven ciphertexts; the Fiat-Shamir context binds each proof
to (session, round, slot, client, chunk) so transcripts cannot be replayed
across positions or identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.crypto.elgamal import Ciphertext
from repro.crypto.groups import Group
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.proofs import (
    DleqItem,
    DleqOrItem,
    DleqOrProof,
    DleqProof,
    batch_verify_dleq,
    batch_verify_dleq_or,
    dlog_statement,
    find_invalid_dleq,
    find_invalid_dleq_or,
    prove_dleq,
    prove_dleq_or,
    verify_dleq,
    verify_dleq_or,
)
from repro.errors import ProtocolError
from repro.util.serialization import pack_fields

_CONTEXT_DOMAIN = "dissent.verdict.v1"


def chunk_count(group: Group, nbytes: int) -> int:
    """Group elements needed to carry ``nbytes`` of payload."""
    if nbytes < 0:
        raise ProtocolError("payload length must be non-negative")
    return max(1, -(-nbytes // group.message_bytes))


def split_chunks(group: Group, payload: bytes, width: int) -> list[bytes]:
    """Cut ``payload`` into ``width`` chunks of ``group.message_bytes``.

    Trailing chunks beyond the payload are empty; an empty chunk embeds as
    the identity element, indistinguishable on the wire from silence.
    """
    size = group.message_bytes
    if len(payload) > width * size:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds {width} chunks"
        )
    return [payload[k * size : (k + 1) * size] for k in range(width)]


def join_chunks(chunks: Sequence[bytes]) -> bytes:
    """Reassemble :func:`split_chunks` output (empty tail chunks vanish)."""
    return b"".join(chunks)


def submission_context(
    session_id: bytes,
    round_number: int,
    slot_index: int,
    client_index: int,
    chunk: int,
) -> bytes:
    """Fiat-Shamir context binding one client proof to its exact position."""
    return pack_fields(
        _CONTEXT_DOMAIN, session_id, round_number, slot_index, client_index, chunk
    )


def share_context(
    session_id: bytes, round_number: int, slot_index: int, server_index: int, chunk: int
) -> bytes:
    """Context for one server's decryption-share proof."""
    return pack_fields(
        _CONTEXT_DOMAIN + ".share",
        session_id,
        round_number,
        slot_index,
        server_index,
        chunk,
    )


@dataclass(frozen=True)
class VerdictClientCiphertext:
    """One client's verifiable round contribution: chunk vector + proofs."""

    client_index: int
    ciphertexts: tuple[Ciphertext, ...]
    proofs: tuple[DleqOrProof, ...]

    @property
    def width(self) -> int:
        return len(self.ciphertexts)


def make_client_ciphertext(
    group: Group,
    combined_key: PublicKey,
    slot_key_element: int,
    client_index: int,
    session_id: bytes,
    round_number: int,
    slot_index: int,
    width: int,
    payload: bytes | None = None,
    slot_private: PrivateKey | None = None,
    rng=None,
    chunk_start: int = 0,
) -> VerdictClientCiphertext:
    """Build a verifiable contribution for one round.

    Args:
        payload: the slot content (owner) or None (every other client).
        slot_private: the slot's pseudonym private key — required with
            ``payload``, since the owner proves the second branch.
        chunk_start: absolute index of the first chunk this contribution
            covers.  Full rounds use 0; a partial replay of chunks
            ``[chunk_start, chunk_start + width)`` keeps every proof bound
            to its *absolute* position, so partial and full transcripts
            can never be confused for one another.
    """
    if payload is not None and slot_private is None:
        raise ProtocolError("the slot owner must hold the slot's pseudonym key")
    chunks = split_chunks(group, payload or b"", width)
    slot_branch = dlog_statement(group, slot_key_element)
    ciphertexts = []
    proofs = []
    for k, chunk in enumerate(chunks):
        owner = payload is not None and bool(chunk)
        element = group.encode_message(chunk) if owner else group.identity()
        r = group.random_scalar(rng)
        # The combined server key is fixed for the whole session and every
        # member encrypts under it each round: members pin its table.
        ct = Ciphertext(
            group.exp_g(r), group.mul(element, group.exp(combined_key.y, r))
        )
        identity_branch = (ct.a, combined_key.y, ct.b)
        context = submission_context(
            session_id, round_number, slot_index, client_index, chunk_start + k
        )
        if owner:
            proof = prove_dleq_or(
                group,
                (identity_branch, slot_branch),
                1,
                slot_private.x,
                context,
                rng,
            )
        else:
            proof = prove_dleq_or(
                group, (identity_branch, slot_branch), 0, r, context, rng
            )
        ciphertexts.append(ct)
        proofs.append(proof)
    return VerdictClientCiphertext(client_index, tuple(ciphertexts), tuple(proofs))


def verify_client_ciphertext(
    group: Group,
    combined_key: PublicKey,
    slot_key_element: int,
    session_id: bytes,
    round_number: int,
    slot_index: int,
    width: int,
    submission: VerdictClientCiphertext,
    chunk_start: int = 0,
) -> bool:
    """Check every chunk proof of one client submission."""
    if submission.width != width or len(submission.proofs) != width:
        return False
    slot_branch = dlog_statement(group, slot_key_element)
    for k, (ct, proof) in enumerate(zip(submission.ciphertexts, submission.proofs)):
        if not (group.is_element(ct.a) and group.is_element(ct.b)):
            return False
        identity_branch = (ct.a, combined_key.y, ct.b)
        context = submission_context(
            session_id, round_number, slot_index, submission.client_index,
            chunk_start + k,
        )
        if not verify_dleq_or(
            group, (identity_branch, slot_branch), proof, context
        ):
            return False
    return True


def _submission_or_items(
    group: Group,
    combined_key: PublicKey,
    slot_key_element: int,
    session_id: bytes,
    round_number: int,
    slot_index: int,
    submission: VerdictClientCiphertext,
    chunk_start: int = 0,
) -> list[DleqOrItem]:
    """The chunk-proof items one submission contributes to a batch."""
    slot_branch = dlog_statement(group, slot_key_element)
    items: list[DleqOrItem] = []
    for k, (ct, proof) in enumerate(zip(submission.ciphertexts, submission.proofs)):
        identity_branch = (ct.a, combined_key.y, ct.b)
        context = submission_context(
            session_id, round_number, slot_index, submission.client_index,
            chunk_start + k,
        )
        items.append(((identity_branch, slot_branch), proof, context))
    return items


def batch_verify_client_ciphertexts(
    group: Group,
    combined_key: PublicKey,
    slot_key_element: int,
    session_id: bytes,
    round_number: int,
    slot_index: int,
    width: int,
    submissions: Sequence[VerdictClientCiphertext],
    rng=None,
    chunk_start: int = 0,
) -> set[int]:
    """Check a whole round of client proofs in one multi-exponentiation.

    Returns the rejected client indices — exactly the set
    :func:`verify_client_ciphertext` would reject one submission at a
    time.  The fast path is a single batched check over every chunk proof
    of every submission; only a failing batch pays for culprit isolation
    (bisection + per-proof leaf rechecks), so the honest-round cost is one
    multi-exponentiation per round instead of eight exponentiations per
    chunk per client.
    """
    rejected: set[int] = set()
    items: list[DleqOrItem] = []
    owners: list[int] = []
    for submission in submissions:
        if submission.width != width or len(submission.proofs) != width:
            rejected.add(submission.client_index)
            continue
        chunk_items = _submission_or_items(
            group,
            combined_key,
            slot_key_element,
            session_id,
            round_number,
            slot_index,
            submission,
            chunk_start,
        )
        items.extend(chunk_items)
        owners.extend([submission.client_index] * len(chunk_items))
    if items and not batch_verify_dleq_or(group, items, rng=rng):
        invalid = find_invalid_dleq_or(group, items, rng=rng, known_failed=True)
        for index in invalid:
            rejected.add(owners[index])
    return rejected


@dataclass(frozen=True)
class VerdictServerShare:
    """One server's decryption shares ``A_k**y_j`` with DLEQ proofs."""

    server_index: int
    shares: tuple[int, ...]
    proofs: tuple[DleqProof, ...]


def combine_client_ciphertexts(
    group: Group, submissions: Sequence[VerdictClientCiphertext], width: int
) -> tuple[list[int], list[int]]:
    """Componentwise product of accepted submissions: (A_k, B_k) per chunk."""
    a_parts = [group.identity()] * width
    b_parts = [group.identity()] * width
    for submission in submissions:
        if submission.width != width:
            raise ProtocolError("submission width does not match the round")
        for k, ct in enumerate(submission.ciphertexts):
            a_parts[k] = group.mul(a_parts[k], ct.a)
            b_parts[k] = group.mul(b_parts[k], ct.b)
    return a_parts, b_parts


def make_server_share(
    group: Group,
    server_key: PrivateKey,
    server_index: int,
    a_parts: Sequence[int],
    session_id: bytes,
    round_number: int,
    slot_index: int,
    chunk_start: int = 0,
) -> VerdictServerShare:
    """Produce this server's proven decryption shares for the chunk products."""
    shares = []
    proofs = []
    for k, a in enumerate(a_parts):
        shares.append(group.exp(a, server_key.x))
        proofs.append(
            prove_dleq(
                group,
                server_key.x,
                a,
                share_context(
                    session_id, round_number, slot_index, server_index,
                    chunk_start + k,
                ),
            )
        )
    return VerdictServerShare(server_index, tuple(shares), tuple(proofs))


def verify_server_share(
    group: Group,
    server_public: PublicKey,
    a_parts: Sequence[int],
    session_id: bytes,
    round_number: int,
    slot_index: int,
    share: VerdictServerShare,
    chunk_start: int = 0,
) -> bool:
    """Check ``log_g(Y_j) = log_{A_k}(share_k)`` for every chunk."""
    if len(share.shares) != len(a_parts) or len(share.proofs) != len(a_parts):
        return False
    for k, (a, value, proof) in enumerate(zip(a_parts, share.shares, share.proofs)):
        if not verify_dleq(
            group,
            server_public.y,
            a,
            value,
            proof,
            share_context(
                session_id, round_number, slot_index, share.server_index,
                chunk_start + k,
            ),
        ):
            return False
    return True


def batch_verify_server_shares(
    group: Group,
    server_publics: Sequence[PublicKey],
    a_parts: Sequence[int],
    session_id: bytes,
    round_number: int,
    slot_index: int,
    shares: Sequence[VerdictServerShare],
    rng=None,
    chunk_start: int = 0,
) -> set[int]:
    """Check every server's decryption-share proofs in one batch.

    Returns the blamed server indices — exactly the servers
    :func:`verify_server_share` would reject.  All M servers' W chunk
    proofs collapse into one multi-exponentiation; the per-share fallback
    only runs when the batch fails.
    """
    blamed: set[int] = set()
    items: list[DleqItem] = []
    owners: list[int] = []
    for share in shares:
        if len(share.shares) != len(a_parts) or len(share.proofs) != len(a_parts):
            blamed.add(share.server_index)
            continue
        public = server_publics[share.server_index]
        for k, (a, value, proof) in enumerate(
            zip(a_parts, share.shares, share.proofs)
        ):
            context = share_context(
                session_id, round_number, slot_index, share.server_index,
                chunk_start + k,
            )
            items.append((public.y, a, value, proof, context))
            owners.append(share.server_index)
    if items and not batch_verify_dleq(group, items, rng=rng):
        invalid = find_invalid_dleq(group, items, rng=rng, known_failed=True)
        for index in invalid:
            blamed.add(owners[index])
    return blamed


def open_round(
    group: Group,
    b_parts: Sequence[int],
    shares: Sequence[VerdictServerShare],
) -> list[int]:
    """Strip every server share off the combined ciphertexts: the plaintexts."""
    elements = []
    for k, b in enumerate(b_parts):
        value = b
        for share in shares:
            value = group.mul(value, group.inv(share.shares[k]))
        elements.append(value)
    return elements


def decode_round(group: Group, elements: Sequence[int]) -> bytes:
    """Decode opened chunk elements back into the slot payload.

    The identity element decodes to the empty chunk (a silent position);
    anything else must carry a valid message embedding.
    """
    chunks = []
    for element in elements:
        if element == group.identity():
            chunks.append(b"")
        else:
            chunks.append(group.decode_message(element))
    return join_chunks(chunks)
