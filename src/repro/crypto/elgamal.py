"""ElGamal encryption, including the layered form used by mix cascades.

The verifiable shuffle (§3.10) moves ElGamal ciphertexts through the server
cascade: clients encrypt under *all* server keys combined, and each server
peels one layer while shuffling.  Two constructions are provided:

* plain ``encrypt``/``decrypt`` under a single key;
* ``encrypt_layered`` under a list of server keys: the ciphertext is
  ``(g**r, m * (y_1 y_2 ... y_M)**r)`` and server ``j`` strips its layer by
  multiplying the second component with ``a**(-x_j)``.  After all servers
  have stripped, the plaintext element remains.  Any single honest server's
  layer keeps the plaintext hidden from the rest — the anytrust property.

Re-randomization (``rerandomize``) lets each mix hop refresh the
ciphertexts so input/output pairs cannot be linked by inspection.

Every operation here forms each published component as *one*
``Group.multiexp`` product: the bases that recur (the generator, the
roster or combined key) walk their fixed-base tables, and the EC backend
encodes each component once.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.crypto.groups import Group
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import InvalidCiphertext


@dataclass(frozen=True)
class Ciphertext:
    """An ElGamal pair (a, b) = (g**r, m * y**r)."""

    a: int
    b: int

    def to_bytes(self, group: Group) -> bytes:
        return group.element_to_bytes(self.a) + group.element_to_bytes(self.b)

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "Ciphertext":
        width = group.element_bytes
        if len(data) != 2 * width:
            raise InvalidCiphertext(
                f"ciphertext must be {2 * width} bytes, got {len(data)}"
            )
        return cls(
            group.element_from_bytes(data[:width]),
            group.element_from_bytes(data[width:]),
        )

    def validate(self, group: Group) -> "Ciphertext":
        group.require_element(self.a, "ciphertext a")
        group.require_element(self.b, "ciphertext b")
        return self


def encrypt(key: PublicKey, message_element: int, r: int | None = None) -> Ciphertext:
    """Encrypt a group element under one public key."""
    group = key.group
    group.require_element(message_element, "plaintext element")
    if r is None:
        r = group.random_scalar()
    # The key walks its table when a shuffle pinned it.  The second
    # component is one product, so the EC backend encodes it once.
    return Ciphertext(
        group.exp_g(r), group.multiexp(((message_element, 1), (key.y, r)))
    )


def decrypt(key: PrivateKey, ct: Ciphertext) -> int:
    """Recover the plaintext group element."""
    return strip_layer(key, ct).b


def combined_key(keys: Sequence[PublicKey]) -> PublicKey:
    """Product of public keys: encrypting under it layers all of them."""
    if not keys:
        raise InvalidCiphertext("need at least one key to combine")
    group = keys[0].group
    y = group.identity()
    for key in keys:
        if key.group != group:
            raise InvalidCiphertext("all combined keys must share a group")
        y = group.mul(y, key.y)
    return PublicKey(group, y)


def encrypt_layered(
    keys: Sequence[PublicKey], message_element: int, r: int | None = None
) -> Ciphertext:
    """Encrypt under the product of all server keys (one onion for the cascade)."""
    return encrypt(combined_key(keys), message_element, r)


def strip_layer(key: PrivateKey, ct: Ciphertext) -> Ciphertext:
    """Remove one server's layer: b := b * a**(-x_j).  The a component stays."""
    group = key.group
    ct.validate(group)
    return Ciphertext(ct.a, group.multiexp(((ct.b, 1), (ct.a, -key.x))))


def final_plaintext(group: Group, ct: Ciphertext) -> int:
    """After every layer is stripped, b holds the bare plaintext element."""
    ct.validate(group)
    return ct.b


def rerandomize(
    key: PublicKey, ct: Ciphertext, r: int | None = None
) -> tuple[Ciphertext, int]:
    """Refresh a ciphertext under (possibly combined) key without decrypting.

    Returns the new ciphertext and the randomness used (the shuffle's
    proof is built from it).

    Both exponentiated bases recur — the generator always, the key across
    every ciphertext of a shuffle step, which pins it — so each component
    is a bare factor plus one fixed-base table walk.
    """
    group = key.group
    ct.validate(group)
    if r is None:
        r = group.random_scalar()
    return (
        Ciphertext(
            group.multiexp(((ct.a, 1), (group.g, r))),
            group.multiexp(((ct.b, 1), (key.y, r))),
        ),
        r,
    )
