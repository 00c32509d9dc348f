"""Key pairs over a Schnorr group.

One container type serves every role a discrete-log key plays in Dissent:
long-term identity keys (signing), server shuffle keys (ElGamal), client
pseudonym keys (slot ownership), and DH key agreement.  The private scalar
is ``x``; the public element is ``y = g**x mod p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.groups import Group


@dataclass(frozen=True)
class PrivateKey:
    """A discrete-log key pair ``(x, y = g**x)``."""

    group: Group
    x: int
    y: int = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.x < self.group.q:
            raise ValueError("private scalar out of range")
        object.__setattr__(self, "y", self.group.exp_g(self.x))

    @classmethod
    def generate(cls, group: Group, rng=None) -> "PrivateKey":
        """Fresh key pair with a uniform private scalar."""
        return cls(group, group.random_scalar(rng))

    @classmethod
    def with_public(cls, group: Group, x: int, y: int) -> "PrivateKey":
        """The pair ``(x, y)`` when ``y = g**x`` is already established —
        a restored pseudonym, found in the key shuffle's output: ``x`` is
        range-checked and ``y`` taken as given, with no exponentiation."""
        if not 1 <= x < group.q:
            raise ValueError("private scalar out of range")
        key = object.__new__(cls)
        for name, value in (("group", group), ("x", x), ("y", y)):
            object.__setattr__(key, name, value)
        return key

    @property
    def public(self) -> "PublicKey":
        return PublicKey(self.group, self.y)


@dataclass(frozen=True)
class PublicKey:
    """The public half: a validated group element."""

    group: Group
    y: int

    def __post_init__(self) -> None:
        self.group.require_element(self.y, "public key")

    def to_bytes(self) -> bytes:
        return self.group.element_to_bytes(self.y)

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "PublicKey":
        return cls(group, group.element_from_bytes(data))

    def fingerprint(self) -> bytes:
        """Short stable identifier for logs and group definitions."""
        from repro.crypto.hashing import sha256

        return sha256(b"dissent.key-fp.v1", self.to_bytes())[:8]
