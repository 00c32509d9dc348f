"""Diffie-Hellman pairwise secrets (the anytrust secret-sharing graph).

Each client i and each server j derive the shared secret
``K_ij = KDF(g**(x_i * x_j))`` from their long-term DH keys.  These secrets
are the edges of Dissent's client/server secret-sharing graph (§3.4): every
client holds M of them, every server holds N, and the PRNG streams they
seed are what make the DC-net work.

A member derives its secrets once, at set-up (its ``learn_schedule``),
and its checkpoint carries them: a restarted group does none of these
2·N·M exponentiations again
(``tests/test_bounded_state.py::TestTableCensus``).

The raw group element is run through SHA-256 before use so that the PRNG
key has a fixed width and no algebraic structure.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import CryptoError


def shared_secret(own: PrivateKey, peer: PublicKey) -> bytes:
    """Derive the 32-byte pairwise secret K_ij.

    Symmetric by construction: ``shared_secret(a, B) == shared_secret(b, A)``.
    """
    if own.group != peer.group:
        raise CryptoError("DH keys must live in the same group")
    element = own.group.exp(peer.y, own.x)
    return sha256(b"dissent.dh.v1", own.group.element_to_bytes(element))


def shared_element(own: PrivateKey, peer: PublicKey) -> int:
    """The raw DH group element ``g**(x_i x_j)``.

    Exposed for the accusation rebuttal (§3.9): an honest client accused via
    a server's equivocation reveals this element together with a
    Chaum-Pedersen DLEQ proof that it really is the DH value of the two
    public keys, convicting the server without exposing the client's key.
    """
    if own.group != peer.group:
        raise CryptoError("DH keys must live in the same group")
    return own.group.exp(peer.y, own.x)


def secret_from_element(group, element: int) -> bytes:
    """Recompute K_ij from a revealed DH element (verifier side of rebuttal)."""
    group.require_element(element, "DH element")
    return sha256(b"dissent.dh.v1", group.element_to_bytes(element))
