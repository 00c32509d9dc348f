"""Hashes, commitments, and Fiat-Shamir challenges.

Three uses in the protocol:

* **Commitments** (server phase 3, Algorithm 2): each server publishes
  ``C_j = H("dissent.commit.v2" ‖ sha256(s_j))`` before revealing its
  ciphertext ``s_j``, preventing a dishonest server from choosing its
  ciphertext after seeing others'.  The commitment binds the body digest
  that the reveal envelope's signature already covers
  (:mod:`repro.net.message`), so every node that holds an ``s_j`` hashes
  its ~round-length bytes once: the committer for the commitment and its
  reveal, each peer for the reveal's signature check and the opening.
* **Self-certifying identifiers** (§3.2): the SHA-256 of the canonical
  group definition names the group, avoiding membership consensus.
* **Fiat-Shamir challenges**: non-interactive variants of the Schnorr /
  Chaum-Pedersen proofs derive verifier challenges by hashing transcripts.
"""

from __future__ import annotations

import hashlib
import hmac

DIGEST_BYTES = 32


def sha256(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def commit(payload_digest: bytes) -> bytes:
    """Commitment to a payload, given its SHA-256 ``payload_digest``.

    Server DC-net ciphertexts are XORs of PRNG streams and are unpredictable
    to other parties, so a bare hash binds and hides adequately for the
    protocol's needs, matching the paper's ``C_j = HASH(s_j)``; hashing the
    digest again binds the payload through SHA-256's collision resistance,
    which envelope signatures already rest on.
    """
    return sha256(b"dissent.commit.v2", payload_digest)


def verify_commit(commitment: bytes, payload_digest: bytes) -> bool:
    """Constant-time check that the payload with ``payload_digest`` opens
    ``commitment``."""
    return hmac.compare_digest(commitment, commit(payload_digest))


def challenge_scalar(order: int, *parts: bytes) -> int:
    """Fiat-Shamir challenge reduced into [0, order).

    Expands the transcript hash with SHAKE-256 to twice the modulus width
    before reducing, keeping the reduction bias negligible.
    """
    if order <= 1:
        raise ValueError("challenge order must exceed 1")
    xof = hashlib.shake_256()
    xof.update(b"dissent.challenge.v1")
    for part in parts:
        xof.update(len(part).to_bytes(4, "big"))
        xof.update(part)
    width = 2 * ((order.bit_length() + 7) // 8)
    return int.from_bytes(xof.digest(width), "big") % order


def group_definition_id(canonical_bytes: bytes) -> bytes:
    """Self-certifying group identifier: hash of the group definition file."""
    return sha256(b"dissent.group-id.v1", canonical_bytes)
