"""Group backends: the abstract ``Group`` interface and the modp backend.

All of Dissent's public-key machinery — ElGamal for the verifiable shuffle,
Schnorr signatures on protocol messages, Diffie-Hellman client/server
secrets, and the Chaum-Pedersen proofs used in decryption and rebuttals —
operates over one abstract algebraic setting: a cyclic group of prime
order ``q`` with a fixed generator ``g``.  Two backends implement it:

* :class:`SchnorrGroup` (this module): the order-``q`` subgroup of
  quadratic residues modulo a safe prime ``p = 2q + 1`` (RFC 3526 modp
  groups plus short toy primes for tests).
* :class:`repro.crypto.ec25519.RistrettoGroup`: the prime-order
  ristretto255 group over edwards25519 (RFC 9496), ~256-bit scalars.

Elements are opaque Python ints — the big-endian integer reading of the
backend's canonical fixed-width encoding.  For modp groups that is the
residue itself; for ristretto it is the 32-byte canonical point encoding.
Consumers never do arithmetic on the ints directly; every operation goes
through the group methods, which is what makes the backends swappable
under every proof, signature, and shuffle without touching wire formats.

Backends are selected by name through :data:`GROUP_FACTORIES` (also
re-exported as ``core.config._GROUP_NAMES``); the ``DISSENT_GROUP_BACKEND``
environment variable steers the *default* used by session builders when no
explicit name is given.

Message embedding for safe primes: a message integer ``m`` in ``[1, q]``
maps to ``m`` itself if ``m`` is a quadratic residue mod ``p`` and to
``p - m`` otherwise; both cases are invertible because exactly one of
``{m, p - m}`` is a QR for every ``m`` in ``[1, q]``.
"""

from __future__ import annotations

import os
import secrets
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto import constants
from repro.crypto.hashing import challenge_scalar
from repro.errors import ConfigError, CryptoError
from repro.obs import metrics as _metrics

#: Window width (bits) for the modp backend's fixed-base precomputation.
#: Measured in CPython: w=5 gives ~5x over ``pow`` at 1536 and 2048 bits
#: while the table build costs 7.5 plain exponentiations.  (The ec25519
#: backend sizes its own signed tables: :mod:`repro.crypto.ec25519`.)
FIXED_BASE_WINDOW = 5

#: Most distinct bases one batched verification should mark hot.  The
#: fixed-base table LRU below holds 96 entries; a caller routing more
#: recurring keys than this through :meth:`Group.exp_fixed` would
#: build-and-evict tables (measured: 7.5 plain exponentiations each on
#: modp1536 and modp2048, 8 on ec25519) instead of amortizing them,
#: ending up slower than the shared ladder.
#: The budget must leave room for one full client batch *plus* the
#: generator and a paper-scale peer-key set (up to 32 servers) to stay
#: resident together: 48 + 32 + 1 <= 96, with headroom to spare.
HOT_BASE_BUDGET = 48

#: Environment variable naming the backend session builders default to.
BACKEND_ENV = "DISSENT_GROUP_BACKEND"

#: Backend used when neither the caller, the policy, nor the environment
#: picks one.  The toy modp group keeps the test suite fast.
DEFAULT_GROUP_NAME = "test-256"


def hot_bases_within_budget(bases: Iterable[int]) -> tuple[int, ...]:
    """``bases`` when they fit the table cache, else none.

    Batch-verification call sites pass every recurring sender key through
    this guard: under the budget the keys win fixed-base table speed;
    over it they stay on the transient multi-exponentiation path, which
    beats thrashing the LRU.
    """
    bases = tuple(bases)
    return bases if len(bases) <= HOT_BASE_BUDGET else ()


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0 (the Legendre symbol for prime n).

    GCD-speed: no modular exponentiation.  For our safe primes this decides
    quadratic residuosity — and therefore subgroup membership — hundreds of
    times faster than the ``x**q mod p`` test at 2048 bits.
    """
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _multiexp_window(count: int, max_bits: int) -> int:
    """Pippenger bucket width balancing digit inserts against bucket sweeps."""
    for threshold, width in ((8, 2), (24, 3), (64, 4), (192, 5), (768, 6)):
        if count <= threshold:
            break
    else:
        width = 7
    # Never pay a bucket sweep wider than the exponents themselves.
    return max(1, min(width, max_bits))


class Group:
    """Abstract prime-order group backend.

    Implementations provide a cyclic group of prime order :attr:`q` with
    generator :attr:`g`, where elements are opaque ints (the big-endian
    reading of the backend's canonical fixed-width encoding).  The
    contract every backend must honor:

    * ``name`` — stable backend identifier, wire-visible in hellos;
    * ``is_toy`` — True only for short test parameters;
    * ``q`` / ``g`` / ``element_bytes`` / ``scalar_bytes`` /
      ``message_bytes`` — sizes and public constants;
    * :meth:`is_element` — full membership/canonical-encoding validation
      (Legendre subgroup check for modp, point decoding for EC);
    * :meth:`mul` / :meth:`exp` / :meth:`exp_fixed` / :meth:`multiexp` /
      :meth:`inv` / :meth:`identity` — the group operation and the
      batching machinery (duplicate-base merging, Pippenger buckets,
      fixed-base hot-key tables) batched verification is built on;
    * :meth:`encode_message` / :meth:`decode_message` — invertible
      embedding of short byte strings into elements;
    * ``hot_batch_max`` — the largest batch of signatures under fixed-base
      keys that costs no more checked one equation at a time than as one
      random-linear-combination product (``math.inf``: every size).  A
      counted fact about the backend's kernels, read by
      :func:`repro.crypto.schnorr.batch_verify` and set by nobody else.

    Shared helpers (byte codecs, randomness, hash-to-scalar domain
    separation) are implemented here once, in terms of the contract.
    """

    name: str = ""
    is_toy: bool = False

    #: Canonical generator as an element int — a dataclass field on the
    #: modp backend, a property on the EC backend.  Annotation only: a
    #: base-class property here would shadow subclass dataclass fields.
    g: int

    hot_batch_max: float

    # -- sizes and constants (backend contract) ---------------------------

    @property
    def q(self) -> int:
        """Prime order of the group."""
        raise NotImplementedError

    @property
    def element_bytes(self) -> int:
        """Fixed byte width used to encode one group element."""
        raise NotImplementedError

    @property
    def scalar_bytes(self) -> int:
        """Fixed byte width used to encode one exponent."""
        return (self.q.bit_length() + 7) // 8

    @property
    def message_bytes(self) -> int:
        """Maximum message payload one element can embed."""
        raise NotImplementedError

    # -- membership and arithmetic (backend contract) ---------------------

    def is_element(self, x: int) -> bool:
        """True iff ``x`` is the canonical encoding of a group element.

        This is where each backend supplies its own validation: the modp
        backend runs the Legendre subgroup check, the EC backend attempts
        canonical point decoding.  Everything downstream — signature
        structural checks, proof verification, wire decoding — calls this
        one method and inherits the right check for the algebra in use.
        """
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        """The group operation."""
        raise NotImplementedError

    def exp(self, base: int, e: int) -> int:
        """``base**e`` (exponent reduced mod q)."""
        raise NotImplementedError

    def exp_fixed(self, base: int, e: int) -> int:
        """Fixed-base exponentiation through a cached window table.

        Several times faster than :meth:`exp` once the table for ``base``
        is built (5x on modp1536, 7x on ec25519), but the build itself
        costs about eight plain exponentiations — only use this for
        bases that recur (the generator, server public keys, combined
        shuffle keys), not for per-proof transient values.
        """
        raise NotImplementedError

    def multiexp(
        self,
        pairs: Iterable[tuple[int, int]],
        hot_bases: Collection[int] = (),
    ) -> int:
        """Simultaneous multi-exponentiation: ``prod base**exp``.

        The workhorse of batched proof verification.  Every backend
        implements the same cost savers:

        * duplicate bases are merged by summing their exponents mod q, so a
          base shared by every proof in a round (a slot key, a combined
          ciphertext component) costs one exponentiation total;
        * the generator and any base listed in ``hot_bases`` go through the
          cached fixed-base window tables (callers pass long-lived keys —
          the combined server key, server publics);
        * the remaining transient bases share one squaring ladder —
          essential when most exponents are the short random-linear-
          combination coefficients of a batched verification, which only
          populate the low windows.  The modp backend buckets them
          (Pippenger); the EC backend interleaves wNAF digits for small
          sets and buckets large ones;
        * an exponent of 1 or -1 (``q - 1``) is a bare factor or a bare
          inverse — one group operation, never a ladder — so callers write
          ``b * y**r`` and ``b / b'`` as products and pay for one result.

        Exponents are reduced mod q; callers pass negative exponents freely.
        Bases must already be group elements (callers validate).
        """
        raise NotImplementedError

    def inv(self, a: int) -> int:
        """Inverse of ``a`` under the group operation."""
        raise NotImplementedError

    def identity(self) -> int:
        """The neutral element's canonical int."""
        raise NotImplementedError

    # -- message embedding (backend contract) -----------------------------

    def encode_message(self, message: bytes) -> int:
        """Embed ``message`` into a group element (invertible)."""
        raise NotImplementedError

    def decode_message(self, element: int) -> bytes:
        """Invert :meth:`encode_message`."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def require_element(self, x: int, what: str = "value") -> int:
        """Return ``x`` if it is a group element, else raise CryptoError."""
        if not self.is_element(x):
            raise CryptoError(f"{what} {x:#x} is not a group element")
        return x

    def exp_g(self, e: int) -> int:
        """``g**e`` via the cached generator table (the hottest base)."""
        return self.exp_fixed(self.g, e)

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Fiat-Shamir hash of ``parts`` to a scalar mod q.

        Domain-separated by backend name: the same transcript bytes hashed
        under different backends (or a future renamed group) yield
        unrelated challenges, so proofs can never be replayed across
        group backends that happen to share scalar widths.
        """
        return challenge_scalar(self.q, b"group:" + self.name.encode(), *parts)

    def random_scalar(self, rng: secrets.SystemRandom | None = None) -> int:
        """Uniform exponent in [1, q-1]."""
        if rng is None:
            return secrets.randbelow(self.q - 1) + 1
        return rng.randrange(1, self.q)

    def random_element(self, rng: secrets.SystemRandom | None = None) -> int:
        """Uniform group element (g raised to a random scalar)."""
        return self.exp(self.g, self.random_scalar(rng))

    def element_to_bytes(self, x: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        return x.to_bytes(self.element_bytes, "big")

    def element_from_bytes(self, data: bytes) -> int:
        """Decode and validate a group element."""
        if len(data) != self.element_bytes:
            raise CryptoError(
                f"element encoding must be {self.element_bytes} bytes, got {len(data)}"
            )
        return self.require_element(int.from_bytes(data, "big"), "decoded element")

    # -- shared instrumentation -------------------------------------------

    def _count_fixed_base(self) -> None:
        if _metrics.GLOBAL.enabled:
            _metrics.GLOBAL.counter("crypto.fixed_base.exps").inc()
            _metrics.GLOBAL.counter(f"crypto.fixed_base.exps.{self.name}").inc()

    def _count_table_build(self) -> None:
        if _metrics.GLOBAL.enabled:
            _metrics.GLOBAL.counter("crypto.fixed_base.table_builds").inc()
            _metrics.GLOBAL.counter(
                f"crypto.fixed_base.table_builds.{self.name}"
            ).inc()

    def _count_multiexp(self, size: int) -> None:
        if _metrics.GLOBAL.enabled:
            _metrics.GLOBAL.counter("crypto.multiexp.calls").inc()
            _metrics.GLOBAL.counter(f"crypto.multiexp.calls.{self.name}").inc()
            _metrics.GLOBAL.histogram(
                "crypto.multiexp.size", _metrics.SIZE_EDGES
            ).observe(size)


@lru_cache(maxsize=96)
def _fixed_base_table(
    p: int, q: int, base: int, name: str = ""
) -> tuple[tuple[int, ...], ...]:
    """Precomputed window table: ``table[i][d] = base**(d * 2**(w*i)) mod p``.

    Cached per (modulus, base), so long-lived bases — the generator,
    server/combined public keys, and the long-term client keys a server
    re-verifies every round in batched signature checks — pay the build
    cost once per process.  A 2048-bit table is ~3.5 MB (1536-bit ~1.9 MB),
    so the LRU bound caps worst-case residency near 350 MB while letting a
    full round's hot-key working set (tens of keys) stay resident; callers
    must only route *recurring* bases through :meth:`SchnorrGroup.exp_fixed`.
    """
    # Only cache misses reach this body; exp_fixed counts every call, so
    # table hits = crypto.fixed_base.exps - crypto.fixed_base.table_builds.
    if _metrics.GLOBAL.enabled:
        _metrics.GLOBAL.counter("crypto.fixed_base.table_builds").inc()
        if name:
            _metrics.GLOBAL.counter(f"crypto.fixed_base.table_builds.{name}").inc()
    w = FIXED_BASE_WINDOW
    blocks = (q.bit_length() + w - 1) // w
    table = []
    b = base % p
    for _ in range(blocks):
        row = [1] * (1 << w)
        for d in range(1, 1 << w):
            row[d] = row[d - 1] * b % p
        table.append(tuple(row))
        b = pow(b, 1 << w, p)
    return tuple(table)


@dataclass(frozen=True)
class SchnorrGroup(Group):
    """The modp backend: a prime-order subgroup of Z_p* for a safe prime.

    Attributes:
        p: safe prime modulus.
        g: generator of the order-``q`` subgroup of quadratic residues.
        is_toy: True for the short test primes; such groups must never be
            used outside tests.
        name: stable backend identifier (``modp1536``, ``test-256``, ...);
            derived from the modulus width when not supplied.
    """

    p: int
    g: int
    is_toy: bool = False
    name: str = ""

    #: One at a time is two fixed-base walks a signature; the product
    #: saves one walk a signature (the generator terms merge) and pays a
    #: 128-squaring bucket ladder for the commitments.  Counted warm in
    #: modular reductions, one at a time / one product: modp1536 1,806 /
    #: 1,822 at three signatures and 2,409 / 2,208 at four (recounted in
    #: ``tests/test_ec_kernels.py``); modp2048 crosses between two and
    #: three (1,592 / 1,722 and 2,394 / 2,213), so at exactly three it
    #: does 8% more work than it could.  Not a dataclass field: the number
    #: follows from the kernels below, no caller sets it.
    hot_batch_max = 3

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"modp{self.p.bit_length()}")

    @property
    def q(self) -> int:
        """Order of the subgroup: (p - 1) / 2."""
        return (self.p - 1) // 2

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    # -- membership and arithmetic ---------------------------------------

    def is_element(self, x: int) -> bool:
        """True iff ``x`` lies in the order-q subgroup (is a QR mod p).

        For a safe prime ``p = 2q + 1`` the order-q subgroup is exactly the
        quadratic residues, so membership is the Legendre symbol — computed
        GCD-style instead of via ``x**q mod p``.  Identical verdicts, but
        cheap enough to run per element inside batched proof verification.
        """
        if not 1 <= x < self.p:
            return False
        return _jacobi(x, self.p) == 1

    def mul(self, a: int, b: int) -> int:
        """Group operation: modular multiplication."""
        return a * b % self.p

    def exp(self, base: int, e: int) -> int:
        """Modular exponentiation ``base**e mod p`` (exponent mod q)."""
        return pow(base, e % self.q, self.p)

    def exp_fixed(self, base: int, e: int) -> int:
        self._count_fixed_base()
        table = _fixed_base_table(self.p, self.q, base, self.name)
        e %= self.q
        acc = 1
        i = 0
        w = FIXED_BASE_WINDOW
        mask = (1 << w) - 1
        p = self.p
        while e:
            d = e & mask
            if d:
                acc = acc * table[i][d] % p
            e >>= w
            i += 1
        return acc

    def multiexp(
        self,
        pairs: Iterable[tuple[int, int]],
        hot_bases: Collection[int] = (),
    ) -> int:
        p, q = self.p, self.q
        merged: dict[int, int] = {}
        for base, exponent in pairs:
            base %= p
            exponent %= q
            if base == 1 or exponent == 0:
                continue
            merged[base] = (merged.get(base, 0) + exponent) % q

        self._count_multiexp(len(merged))

        acc = 1
        transient: list[tuple[int, int]] = []
        hot = set(hot_bases)
        for base, exponent in merged.items():
            if exponent == 0:
                continue
            if base == self.g:
                acc = acc * self.exp_g(exponent) % p
            elif base in hot:
                acc = acc * self.exp_fixed(base, exponent) % p
            elif exponent == 1:
                # A bare factor (the commitment of a scalar signature
                # check) must not drag the rest onto the bucket ladder.
                acc = acc * base % p
            elif exponent == q - 1:
                # A bare inverse (the b/b' quotient of a strip check) is
                # one extended GCD, not a full-width exponentiation.
                acc = acc * pow(base, -1, p) % p
            else:
                transient.append((base, exponent))

        if not transient:
            return acc
        if len(transient) == 1:
            base, exponent = transient[0]
            return acc * pow(base, exponent, p) % p

        max_bits = max(exponent.bit_length() for _, exponent in transient)
        c = _multiexp_window(len(transient), max_bits)
        windows = -(-max_bits // c)
        mask = (1 << c) - 1
        result = 1
        for w in range(windows - 1, -1, -1):
            if result != 1:
                for _ in range(c):
                    result = result * result % p
            buckets = [1] * (mask + 1)
            shift = w * c
            for base, exponent in transient:
                digit = (exponent >> shift) & mask
                if digit:
                    buckets[digit] = buckets[digit] * base % p
            # Suffix-product sweep: sum_d d * bucket[d] in 2 * 2^c mults.
            running = 1
            total = 1
            for digit in range(mask, 0, -1):
                bucket = buckets[digit]
                if bucket != 1:
                    running = running * bucket % p
                if running != 1:
                    total = total * running % p
            result = result * total % p
        return acc * result % p

    def inv(self, a: int) -> int:
        """Multiplicative inverse mod p."""
        return pow(a, -1, self.p)

    def identity(self) -> int:
        return 1

    # -- message embedding (general message shuffles) ----------------------

    @property
    def message_bytes(self) -> int:
        """Maximum message payload one element can embed.

        One byte is reserved below the modulus so the padded integer stays
        under ``q``; the first byte of the embedded integer is a 0x01 guard
        that keeps leading zero bytes of the message from being lost.
        """
        return (self.q.bit_length() - 9) // 8

    def encode_message(self, message: bytes) -> int:
        """Embed ``message`` into a group element (invertible).

        The message is framed as ``0x01 || message`` interpreted big-endian,
        which is in ``[1, q]`` by the width check; the QR trick then maps it
        into the subgroup.
        """
        if len(message) > self.message_bytes:
            raise CryptoError(
                f"message too long to embed: {len(message)} > {self.message_bytes}"
            )
        m = int.from_bytes(b"\x01" + message, "big")
        if not 1 <= m <= self.q:
            raise CryptoError("framed message out of embeddable range")
        if pow(m, self.q, self.p) == 1:
            return m
        return self.p - m

    def decode_message(self, element: int) -> bytes:
        """Invert :func:`encode_message`."""
        self.require_element(element, "embedded message")
        m = element if element <= self.q else self.p - element
        raw = m.to_bytes((m.bit_length() + 7) // 8, "big")
        if not raw or raw[0] != 0x01:
            raise CryptoError("element does not carry an embedded message")
        return raw[1:]


@lru_cache(maxsize=None)
def production_group() -> SchnorrGroup:
    """RFC 3526 2048-bit MODP group — the deployment default."""
    return SchnorrGroup(
        constants.RFC3526_2048_P, constants.DEFAULT_GENERATOR, name="modp2048"
    )


@lru_cache(maxsize=None)
def wide_group() -> SchnorrGroup:
    """RFC 3526 1536-bit MODP group — the cheaper modp production option."""
    return SchnorrGroup(
        constants.RFC3526_1536_P, constants.DEFAULT_GENERATOR, name="modp1536"
    )


@lru_cache(maxsize=None)
def testing_group() -> SchnorrGroup:
    """256-bit toy group for fast functional tests.  Not secure."""
    return SchnorrGroup(
        constants.TEST_256_P, constants.DEFAULT_GENERATOR, is_toy=True, name="test-256"
    )


@lru_cache(maxsize=None)
def tiny_group() -> SchnorrGroup:
    """64-bit toy group for property tests that hammer the algebra."""
    return SchnorrGroup(
        constants.TEST_64_P, constants.DEFAULT_GENERATOR, is_toy=True, name="tiny-64"
    )


@lru_cache(maxsize=None)
def medium_group() -> SchnorrGroup:
    """512-bit toy group: big enough to embed 55-byte messages in tests."""
    return SchnorrGroup(
        constants.TEST_512_P, constants.DEFAULT_GENERATOR, is_toy=True, name="test-512"
    )


def _ec25519_group() -> Group:
    """Lazy import so the EC backend never loads on pure-modp runs."""
    from repro.crypto.ec25519 import ec_group

    return ec_group()


#: Backend registry: every name a ``GroupDefinition`` or session builder
#: may select — one name per group, the short backend ids of the policy
#: surface (``modp1536`` / ``modp2048`` / ``ec25519``) plus the toy
#: test groups.
GROUP_FACTORIES = {
    "modp2048": production_group,
    "modp1536": wide_group,
    "test-256": testing_group,
    "test-512": medium_group,
    "tiny-64": tiny_group,
    "ec25519": _ec25519_group,
}


def group_by_name(name: str) -> Group:
    """Resolve a backend/group name through the registry."""
    try:
        factory = GROUP_FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown group {name!r}; choose one of {sorted(GROUP_FACTORIES)}"
        ) from None
    return factory()


def default_group_name() -> str:
    """The group session builders use when no explicit name is given.

    ``DISSENT_GROUP_BACKEND`` overrides the built-in default — this is the
    knob CI's backend matrix turns to re-run the whole suite on another
    backend without touching call sites.
    """
    name = os.environ.get(BACKEND_ENV, "").strip()
    if not name:
        return DEFAULT_GROUP_NAME
    if name not in GROUP_FACTORIES:
        raise ConfigError(
            f"{BACKEND_ENV}={name!r} is not a known backend; "
            f"choose one of {sorted(GROUP_FACTORIES)}"
        )
    return name


def resolve_group_name(explicit: str | None = None, policy=None) -> str:
    """Pick the group for a new session: explicit > policy > env > default."""
    if explicit is not None:
        return explicit
    backend = getattr(policy, "group_backend", "auto") if policy else "auto"
    if backend and backend != "auto":
        return backend
    return default_group_name()
