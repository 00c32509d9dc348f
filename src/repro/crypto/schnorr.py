"""Schnorr signatures (commitment form, deterministic nonces, batchable).

"All network messages are signed to ensure integrity and accountability"
(paper §3.3).  We use textbook Schnorr over the protocol group with a
Fiat-Shamir challenge:

    commit  t = g**k
    c       = H(domain, y, t, message)
    s       = k + c*x  mod q
    verify  g**s == t * y**c,  i.e.  t * y**c * g**(-s) == 1

Signatures are **commitment form** ``(t, s)`` pairs: carrying the
commitment instead of the challenge makes the verification equation
*linear* in known group elements (``g``, ``y``, ``t``), so a whole round's
worth of envelope signatures can be checked with one random-linear-
combination multi-exponentiation (:func:`batch_verify`) — the same trick
Verdict applies to its proofs, and the reason the earlier challenge-form
``(c, s)`` encoding was retired.  Soundness is unchanged: the hash binds
the transmitted commitment exactly as the challenge form did.  A batch
whose keys all have fixed-base tables leaves a shared ladder nothing to
save; up to the backend's :attr:`~repro.crypto.groups.Group.hot_batch_max`
signatures it is cheaper one equation at a time, and :func:`batch_verify`
checks it that way.

**Each distinct signature is evaluated once per process.**  The paper has
every client check all M server signatures on a round's output and every
server check its peers' envelopes; deployed, those are N + M machines'
work, but a process that hosts several members (every test, example and
benchmark workload here hosts all of them) would pay for the same
equation N times on one core.  :func:`verify` and :func:`batch_verify`
keep a bounded memo of *accepted* ``(group, y, message, t, s)`` tuples —
the exact values the equation reads, no digest of them — and accept a
tuple found there without evaluating it; a batch builds its product over
the items not yet accepted.  Only a completed verification writes an
entry: :func:`sign` never does (a process that signs and then verifies
still verifies), and a rejection never does, so a forged signature is
evaluated every time it is presented and :func:`find_invalid` names
culprits exactly as before.  The memo is process-wide rather than
per-session because its point is what co-hosted members share;
:func:`forget_accepted` empties it and
:func:`repro.core.session.build_keys` calls that for every new group.
With one member per process (``NetworkedSession`` in ``mode="subprocess"``)
nothing repeats and the memo answers nothing.

Nonces are **deterministic** (RFC 6979 in spirit): ``k`` is derived by
hashing the private scalar together with the message, so nonce reuse
across distinct messages is impossible even under seeded test RNGs or a
broken system RNG — the classic Schnorr/ECDSA key-extraction footgun.
Signing is therefore a pure function: the same key and message always
produce the same signature.

Both hashes absorb the whole ``message`` — twice to sign (nonce, then
challenge), once per evaluated check — so message length is this module's cost
model.  Callers with large content sign a digest of it: a
:class:`~repro.net.message.SignedEnvelope` hands in ~150 bytes (its
header fields and ``sha256(body)``,
:func:`repro.net.message.envelope_signed_payload`), so the nonce no
longer sees a 500 KiB bulk body, let alone twice.  Signatures stay
deterministic — the digest is a function of the body — and nothing here
hashes on a caller's behalf: ``message`` is signed as given.

When a batch fails, :func:`find_invalid` isolates the exact forged
signatures by bisection with per-signature rechecks at the leaves, so
accept/reject decisions and blame stay bit-identical to verifying every
signature individually.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import InvalidSignature
from repro.obs import metrics as _metrics

_DOMAIN = b"dissent.schnorr-sig.v2"
_DOMAIN_NONCE = b"dissent.schnorr-nonce.v1"

#: Accepted signatures the process remembers, oldest evicted first.  A
#: 32-client / 3-server round signs 54 messages, so this is some 75 rounds;
#: an entry is the exact 5-tuple over a ~150-byte payload, about 0.5 KiB
#: on ec25519 and 1 KiB on modp2048 — 2 to 4 MiB when full.
ACCEPTED_MEMO_ENTRIES = 4096


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature in commitment form ``(t, s)``.

    ``t`` is a group element (the nonce commitment ``g**k``); ``s`` is the
    response scalar.  Wire encoding is the fixed-width element encoding of
    ``t`` followed by the fixed-width scalar encoding of ``s``.
    """

    t: int
    s: int

    def to_bytes(self, group) -> bytes:
        return group.element_to_bytes(self.t) + self.s.to_bytes(
            group.scalar_bytes, "big"
        )

    @classmethod
    def from_bytes(cls, group, data: bytes) -> "Signature":
        width = group.element_bytes + group.scalar_bytes
        if len(data) != width:
            raise InvalidSignature(
                f"signature must be {width} bytes, got {len(data)}"
            )
        return cls(
            int.from_bytes(data[: group.element_bytes], "big"),
            int.from_bytes(data[group.element_bytes :], "big"),
        )


def _nonce(key: PrivateKey, message: bytes) -> int:
    """Deterministic per-(key, message) nonce in ``[1, q-1]``.

    Hashing the private scalar with the message (RFC 6979 style) makes the
    nonce a pure function of the signing input: two distinct messages get
    independent nonces, and the same message re-signed reuses the *whole*
    signature rather than leaking ``x`` through a repeated ``t`` with a
    fresh challenge.
    """
    group = key.group
    x_bytes = key.x.to_bytes(group.scalar_bytes, "big")
    counter = 0
    while True:
        k = group.hash_to_scalar(
            _DOMAIN_NONCE,
            x_bytes,
            counter.to_bytes(4, "big"),
            message,
        )
        if k != 0:
            return k
        counter += 1


def _challenge(group, y: int, t: int, message: bytes) -> int:
    return group.hash_to_scalar(
        _DOMAIN,
        group.element_to_bytes(y),
        group.element_to_bytes(t),
        message,
    )


def sign(key: PrivateKey, message: bytes) -> Signature:
    """Sign ``message`` with a deterministically derived nonce."""
    group = key.group
    k = _nonce(key, message)
    t = group.exp_g(k)
    c = _challenge(group, key.y, t, message)
    s = (k + c * key.x) % group.q
    return Signature(t, s)


def _structural_ok(key: PublicKey, signature: Signature) -> bool:
    """Range/membership preconditions shared by scalar and batch paths."""
    group = key.group
    if not 0 <= signature.s < group.q:
        return False
    return group.is_element(signature.t)


# ---------------------------------------------------------------------------
# The accepted-signature memo: one verification per signature per process
# ---------------------------------------------------------------------------

_accepted: OrderedDict[tuple, None] = OrderedDict()
_accepted_lock = threading.Lock()


def _memo_key(key: PublicKey, message: bytes, signature: Signature) -> tuple:
    """Everything the verification equation reads, exactly.

    The group goes in by name, which is its identity everywhere else too
    (the registry, the hello, the Fiat-Shamir domain of the challenge).
    """
    return (key.group.name, key.y, bytes(message), signature.t, signature.s)


def _remember(memo_keys: Iterable[tuple]) -> None:
    # Insert-then-evict is compound and two threads verify (the tcp
    # session's caller and its loop); lookups are single dict reads.
    with _accepted_lock:
        for memo_key in memo_keys:
            _accepted[memo_key] = None
        while len(_accepted) > ACCEPTED_MEMO_ENTRIES:
            _accepted.popitem(last=False)


def forget_accepted() -> None:
    """Empty the memo: every signature is evaluated afresh from here on.

    :func:`repro.core.session.build_keys` calls this for every group it
    makes.  Signatures are deterministic, so a second session built from
    the same seed in one interpreter would otherwise find all of its
    set-up and rounds already answered.
    """
    with _accepted_lock:
        _accepted.clear()


def _count(name: str, amount: int) -> None:
    if amount and _metrics.GLOBAL.enabled:
        _metrics.GLOBAL.counter(f"crypto.schnorr.{name}").inc(amount)


def verify(key: PublicKey, message: bytes, signature: Signature) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``key``.

    The one-item case of the equation :func:`batch_verify` checks:
    ``t * y**c * g**(-s)`` must be the identity, evaluated as a single
    multi-exponentiation (no coefficient — there is nothing to combine).
    When ``key.y`` has a table (a roster key some member pinned) both
    full-width exponents are fixed-base table walks.

    A signature this process has already accepted — the same group, key,
    message, ``t`` and ``s`` — is accepted again without evaluating
    anything; a rejected one is evaluated every time it is presented.
    """
    memo_key = _memo_key(key, message, signature)
    if memo_key in _accepted:
        _count("memo_hits", 1)
        return True
    group = key.group
    if not _structural_ok(key, signature):
        return False
    c = _challenge(group, key.y, signature.t, message)
    product = group.multiexp(((signature.t, 1), (key.y, c), (group.g, -signature.s)))
    _count("checks", 1)
    if product != group.identity():
        return False
    _remember((memo_key,))
    return True


def require_valid(key: PublicKey, message: bytes, signature: Signature) -> None:
    """Raise :class:`InvalidSignature` unless the signature verifies."""
    if not verify(key, message, signature):
        raise InvalidSignature("Schnorr signature verification failed")


# ---------------------------------------------------------------------------
# Batched verification: one multi-exponentiation for what is new in a round
# ---------------------------------------------------------------------------

#: One signature check for batching: ``(public key, message, signature)``.
BatchItem = tuple[PublicKey, bytes, Signature]


def batch_verify(items: Sequence[BatchItem], rng=None) -> bool:
    """Check many signatures, evaluating only those not accepted before.

    Items the process has already accepted (see :func:`verify`) are
    skipped.  Of the rest, each signature's equation
    ``t * y**c * g**(-s) == 1`` is raised to an independent short random
    coefficient and multiplied into one product that must equal the
    identity; a forger passes only by predicting the coefficient in
    advance (probability ``2**-BATCH_COEFF_BITS``, see
    :mod:`repro.crypto.proofs`).  Accepts iff — with overwhelming
    probability — every signature would pass :func:`verify` individually;
    on ``False`` use :func:`find_invalid` to name the exact culprits.
    Nothing is remembered from a batch that fails.

    Empty batches accept.  A single pending item, or at most
    ``group.hot_batch_max`` pending items whose keys all have tables
    (:meth:`~repro.crypto.groups.Group.has_table`), goes through
    :func:`verify` one at a time: with every full-width exponent on a
    table there is no ladder to share, and the coefficients would only
    add one.

    Args:
        rng: source of the batch coefficients (tests seed it); one is
            drawn per signature that enters the product.
    """
    from repro.crypto.proofs import _batch_coefficient

    if not items:
        return True
    group = items[0][0].group
    pending: list[tuple[tuple, BatchItem]] = []
    for item in items:
        key = item[0]
        if key.group is not group and key.group != group:
            raise InvalidSignature("batched signatures must share one group")
        memo_key = _memo_key(*item)
        if memo_key not in _accepted:
            pending.append((memo_key, item))
    _count("memo_hits", len(items) - len(pending))
    if len(pending) == 1 or (
        len(pending) <= group.hot_batch_max
        and all(group.has_table(key.y) for _, (key, _, _) in pending)
    ):
        return all(verify(*item) for _, item in pending)
    pairs: list[tuple[int, int]] = []
    g_exponent = 0
    for _, (key, message, signature) in pending:
        if not _structural_ok(key, signature):
            return False
        c = _challenge(group, key.y, signature.t, message)
        alpha = _batch_coefficient(group, rng)
        # t**alpha * y**(alpha*c) * g**(-alpha*s) == 1, summed over the batch.
        g_exponent += alpha * signature.s
        pairs.append((key.y, alpha * c))
        pairs.append((signature.t, alpha))
    # Identity form: the one negated (hence full-width) exponent lands on
    # the generator, which is always fixed-base, so every transient
    # exponent stays at coefficient width and the shared doubling ladder
    # stays 128 long.  Comparing against the identity lets a backend skip
    # canonical encoding of the product (ristretto: two field
    # exponentiations saved per valid batch).
    pairs.append((group.g, -g_exponent))
    product = group.multiexp(pairs)
    _count("checks", len(pending))
    if product != group.identity():
        return False
    _remember(memo_key for memo_key, _ in pending)
    return True


def find_invalid(
    items: Sequence[BatchItem],
    rng=None,
    known_failed: bool = False,
) -> tuple[int, ...]:
    """Indices of the invalid signatures among ``items`` (exact culprit set).

    Fast path: one batched check accepting everything.  A failing batch
    bisects down to per-signature :func:`verify` calls at the leaves, so
    the returned set is exactly what an unbatched verifier would reject.
    Callers that already watched the full batch fail pass
    ``known_failed=True`` to skip re-running it.
    """
    from repro.crypto.proofs import _bisect_invalid

    if not items:
        return ()
    return tuple(
        _bisect_invalid(
            list(range(len(items))),
            lambda idx: batch_verify([items[i] for i in idx], rng),
            lambda i: verify(*items[i]),
            known_failed,
        )
    )
