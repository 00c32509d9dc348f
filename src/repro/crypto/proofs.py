"""Zero-knowledge proofs: Schnorr PoK, Chaum-Pedersen DLEQ, and OR-composition.

Dissent uses Chaum-Pedersen proofs [15] for verifiable decryption in the
shuffle cascade (§3.10) and — in our implementation, as the paper sketches
in §3.9 — for the accusation rebuttal: proving that a revealed DH element
really is the shared secret of two public keys, without revealing either
private key.

The **disjunctive** form (:func:`prove_dleq_or`) is the CDS94 OR-composition
of two Chaum-Pedersen statements: the prover convinces the verifier that at
least one of two DLEQ relations holds, without revealing which.  This is the
proof shape Verdict's verifiable DC-net needs — a slot owner proves
"my ciphertext encrypts the identity element OR I hold the slot's pseudonym
key", making owners and non-owners indistinguishable while excluding
disruptors (who can prove neither branch).  A plain knowledge-of-discrete-log
statement embeds as the degenerate DLEQ ``(u=y, h=g, v=y)``
(:func:`dlog_statement`).

All proofs are made non-interactive with Fiat-Shamir; an optional
``context`` byte string binds a proof to its use site so transcripts cannot
be replayed across protocol phases.

**Batch verification.**  DLEQ and OR transcripts carry their commitments
(``t`` values) rather than the challenge, so each one verifies by checking
group equations that are *linear in the exponents* — e.g.
``g**s == t1 * u**c`` with ``c`` recomputed from the hash.  That shape is
what Verdict exploits (Corrigan-Gibbs, Wolinsky, Ford): raise each
equation to a short random coefficient, multiply them all together, and
one multi-exponentiation (:meth:`Group.multiexp`) checks an entire
round's worth of proofs.  A cheating prover passes only by predicting the
coefficients (probability ``2**-BATCH_COEFF_BITS``).  When a batch fails,
:func:`find_invalid_dleq` / :func:`find_invalid_dleq_or` isolate the exact
culprit set by bisection with a per-proof recheck at the leaves, so blame
stays bit-identical to checking every proof individually.
"""

from __future__ import annotations

import secrets
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.crypto.groups import Group
from repro.errors import InvalidProof

_DOMAIN_POK = b"dissent.schnorr-pok.v1"
_DOMAIN_DLEQ = b"dissent.chaum-pedersen.v1"
_DOMAIN_DLEQ_OR = b"dissent.chaum-pedersen-or.v1"

#: Bit length of the random-linear-combination coefficients used by batch
#: verification.  A batch that accepts an invalid proof requires guessing a
#: coefficient in advance: probability ``2**-BATCH_COEFF_BITS`` (clamped
#: below the group order for toy groups).
BATCH_COEFF_BITS = 128


def _batch_coefficient(group: Group, rng=None) -> int:
    """One short nonzero random coefficient for a batched equation."""
    bits = min(BATCH_COEFF_BITS, group.q.bit_length() - 1)
    bound = 1 << bits
    if rng is None:
        return 1 + secrets.randbelow(bound - 1)
    return rng.randrange(1, bound)


@dataclass(frozen=True)
class SchnorrProof:
    """Proof of knowledge of x with y = g**x (challenge form)."""

    c: int
    s: int


def prove_dlog(group: Group, x: int, context: bytes = b"") -> SchnorrProof:
    """Prove knowledge of the discrete log of ``g**x``."""
    y = group.exp_g(x)
    k = group.random_scalar()
    t = group.exp_g(k)
    c = group.hash_to_scalar(
        _DOMAIN_POK,
        context,
        group.element_to_bytes(y),
        group.element_to_bytes(t),
    )
    s = (k + c * x) % group.q
    return SchnorrProof(c, s)


def verify_dlog(group: Group, y: int, proof: SchnorrProof, context: bytes = b"") -> bool:
    """Check a :func:`prove_dlog` transcript against public value ``y``."""
    if not group.is_element(y):
        return False
    if not (0 <= proof.c < group.q and 0 <= proof.s < group.q):
        return False
    t = group.mul(group.exp_g(proof.s), group.inv(group.exp(y, proof.c)))
    expected = group.hash_to_scalar(
        _DOMAIN_POK,
        context,
        group.element_to_bytes(y),
        group.element_to_bytes(t),
    )
    return expected == proof.c


@dataclass(frozen=True)
class DleqProof:
    """Chaum-Pedersen proof that log_g(u) == log_h(v) (commitment form).

    Carrying the commitments ``(t1, t2)`` instead of the challenge makes
    verification two *linear* group equations —

        ``g**s == t1 * u**c``  and  ``h**s == t2 * v**c``

    with ``c`` recomputed from the Fiat-Shamir hash — which is what lets
    :func:`batch_verify_dleq` fold many proofs into one
    multi-exponentiation.  Soundness is unchanged: the hash binds the
    transmitted commitments exactly as the challenge form did.
    """

    t1: int
    t2: int
    s: int


def _dleq_challenge(
    group: Group, u: int, h: int, v: int, t1: int, t2: int, context: bytes
) -> int:
    return group.hash_to_scalar(
        _DOMAIN_DLEQ,
        context,
        group.element_to_bytes(h),
        group.element_to_bytes(u),
        group.element_to_bytes(v),
        group.element_to_bytes(t1),
        group.element_to_bytes(t2),
    )


def prove_dleq(
    group: Group, x: int, h: int, context: bytes = b"", v: int | None = None
) -> DleqProof:
    """Prove ``log_g(g**x) == log_h(h**x)`` for a second base ``h``.

    The prover knows ``x``; the verifier sees ``u = g**x`` and ``v = h**x``.
    A caller that already raised ``h`` to ``x`` passes it as ``v``.
    """
    group.require_element(h, "DLEQ base h")
    u = group.exp_g(x)
    if v is None:
        v = group.exp(h, x)
    k = group.random_scalar()
    t1 = group.exp_g(k)
    t2 = group.exp(h, k)
    c = _dleq_challenge(group, u, h, v, t1, t2, context)
    s = (k + c * x) % group.q
    return DleqProof(t1, t2, s)


def _dleq_checks(
    group: Group, u: int, h: int, v: int, proof: DleqProof
) -> bool:
    """Structural preconditions shared by single and batched verification."""
    for value in (u, h, v, proof.t1, proof.t2):
        if not group.is_element(value):
            return False
    return 0 <= proof.s < group.q


def verify_dleq(
    group: Group,
    u: int,
    h: int,
    v: int,
    proof: DleqProof,
    context: bytes = b"",
) -> bool:
    """Check that ``(g, u)`` and ``(h, v)`` share a discrete log."""
    if not _dleq_checks(group, u, h, v, proof):
        return False
    c = _dleq_challenge(group, u, h, v, proof.t1, proof.t2, context)
    if group.exp_g(proof.s) != group.mul(proof.t1, group.exp(u, c)):
        return False
    return group.exp(h, proof.s) == group.mul(proof.t2, group.exp(v, c))


def require_dleq(
    group: Group,
    u: int,
    h: int,
    v: int,
    proof: DleqProof,
    context: bytes = b"",
) -> None:
    """Raise :class:`InvalidProof` unless the DLEQ proof verifies."""
    if not verify_dleq(group, u, h, v, proof, context):
        raise InvalidProof("Chaum-Pedersen DLEQ verification failed")


# ---------------------------------------------------------------------------
# Disjunctive (OR) composition of two Chaum-Pedersen statements
# ---------------------------------------------------------------------------

#: A DLEQ statement ``(u, h, v)``: "I know x with u = g**x and v = h**x".
#: The first base is always the group generator.
DleqStatement = tuple[int, int, int]


def dlog_statement(group: Group, y: int) -> DleqStatement:
    """Encode plain knowledge-of-discrete-log of ``y`` as a DLEQ statement.

    With ``h = g`` and ``v = u = y`` the DLEQ relation degenerates to
    ``y = g**x``, so the OR-composition can mix "ciphertext encrypts the
    identity" branches with "I hold the slot key" branches.
    """
    return (y, group.g, y)


@dataclass(frozen=True)
class DleqOrProof:
    """CDS94 OR-proof over two DLEQ statements (commitment form).

    Carries both branches' commitments plus the first branch's challenge;
    the second branch's challenge is ``c_total - c1 mod q`` where
    ``c_total`` is the Fiat-Shamir hash of the whole transcript.  The
    prover only controls the split, so it can simulate at most one branch.
    Like :class:`DleqProof`, the commitment form turns verification into
    four linear group equations, enabling :func:`batch_verify_dleq_or`.
    """

    t11: int  # branch-1 commitments (g-side, h-side)
    t12: int
    t21: int  # branch-2 commitments
    t22: int
    c1: int
    s1: int
    s2: int


def _or_challenge(
    group: Group,
    statements: tuple[DleqStatement, DleqStatement],
    commitments: tuple[tuple[int, int], tuple[int, int]],
    context: bytes,
) -> int:
    parts = [context]
    for (u, h, v), (t1, t2) in zip(statements, commitments):
        parts.extend(
            group.element_to_bytes(value) for value in (u, h, v, t1, t2)
        )
    return group.hash_to_scalar(_DOMAIN_DLEQ_OR, *parts)


def _simulate_branch(
    group: Group, statement: DleqStatement, rng=None
) -> tuple[int, int, tuple[int, int]]:
    """Pick (c, s) at random and derive commitments that verify under them."""
    u, h, v = statement
    c = group.random_scalar(rng)
    s = group.random_scalar(rng)
    t1 = group.mul(group.exp_g(s), group.inv(group.exp(u, c)))
    t2 = group.mul(group.exp(h, s), group.inv(group.exp(v, c)))
    return c, s, (t1, t2)


def prove_dleq_or(
    group: Group,
    statements: tuple[DleqStatement, DleqStatement],
    known_index: int,
    x: int,
    context: bytes = b"",
    rng=None,
) -> DleqOrProof:
    """Prove that at least one of two DLEQ statements holds.

    Args:
        statements: the two public statements ``(u, h, v)``; the first base
            of both is the group generator.
        known_index: which statement (0 or 1) the prover actually holds a
            witness for.
        x: the witness for ``statements[known_index]``.
        context: Fiat-Shamir use-site binding.

    The unknown branch is simulated (random challenge + response, derived
    commitments); the real branch's challenge is forced by the overall hash,
    so the transcript reveals nothing about which branch was real.
    """
    if known_index not in (0, 1):
        raise InvalidProof("known_index must be 0 or 1")
    other = 1 - known_index
    for u, h, v in statements:
        group.require_element(h, "OR-proof base h")
        group.require_element(u, "OR-proof element u")
        group.require_element(v, "OR-proof element v")

    c_other, s_other, t_other = _simulate_branch(group, statements[other], rng)
    k = group.random_scalar(rng)
    _, h_known, _ = statements[known_index]
    t_known = (group.exp_g(k), group.exp(h_known, k))

    commitments = (
        (t_known, t_other) if known_index == 0 else (t_other, t_known)
    )
    c_total = _or_challenge(group, statements, commitments, context)
    c_known = (c_total - c_other) % group.q
    s_known = (k + c_known * x) % group.q

    (t11, t12), (t21, t22) = commitments
    if known_index == 0:
        return DleqOrProof(t11, t12, t21, t22, c_known, s_known, s_other)
    return DleqOrProof(t11, t12, t21, t22, c_other, s_other, s_known)


def _or_checks(
    group: Group,
    statements: tuple[DleqStatement, DleqStatement],
    proof: DleqOrProof,
) -> bool:
    """Structural preconditions shared by single and batched verification."""
    scalars = (proof.c1, proof.s1, proof.s2)
    if not all(0 <= value < group.q for value in scalars):
        return False
    elements = (proof.t11, proof.t12, proof.t21, proof.t22)
    for u, h, v in statements:
        elements += (u, h, v)
    return all(group.is_element(value) for value in elements)


def _or_split(
    group: Group,
    statements: tuple[DleqStatement, DleqStatement],
    proof: DleqOrProof,
    context: bytes,
) -> tuple[int, int]:
    """Recompute the per-branch challenges from the transcript hash."""
    c_total = _or_challenge(
        group,
        statements,
        ((proof.t11, proof.t12), (proof.t21, proof.t22)),
        context,
    )
    return proof.c1, (c_total - proof.c1) % group.q


def verify_dleq_or(
    group: Group,
    statements: tuple[DleqStatement, DleqStatement],
    proof: DleqOrProof,
    context: bytes = b"",
) -> bool:
    """Check a :func:`prove_dleq_or` transcript."""
    if not _or_checks(group, statements, proof):
        return False
    c1, c2 = _or_split(group, statements, proof, context)
    commitments = ((proof.t11, proof.t12), (proof.t21, proof.t22))
    for (u, h, v), (t1, t2), c, s in zip(
        statements, commitments, (c1, c2), (proof.s1, proof.s2)
    ):
        if group.exp_g(s) != group.mul(t1, group.exp(u, c)):
            return False
        if group.exp(h, s) != group.mul(t2, group.exp(v, c)):
            return False
    return True


# ---------------------------------------------------------------------------
# Batched verification: one multi-exponentiation for many proofs
# ---------------------------------------------------------------------------

#: One DLEQ item for batching: ``(u, h, v, proof, context)``.
DleqItem = tuple[int, int, int, DleqProof, bytes]
#: One OR item for batching: ``(statements, proof, context)``.
DleqOrItem = tuple[tuple[DleqStatement, DleqStatement], DleqOrProof, bytes]


def batch_verify_dleq(group: Group, items: Sequence[DleqItem], rng=None) -> bool:
    """Check many DLEQ proofs with one multi-exponentiation.

    Each proof's two equations are raised to independent short random
    coefficients and multiplied into a single product that must equal the
    identity.  Accepts iff (with overwhelming probability) every proof
    would pass :func:`verify_dleq` individually; on ``False`` use
    :func:`find_invalid_dleq` to name exact culprits.  Long-lived bases
    (server public keys, combined keys) walk their tables when a member
    pinned them.
    """
    pairs: list[tuple[int, int]] = []
    g_exponent = 0
    for u, h, v, proof, context in items:
        if not _dleq_checks(group, u, h, v, proof):
            return False
        c = _dleq_challenge(group, u, h, v, proof.t1, proof.t2, context)
        alpha = _batch_coefficient(group, rng)
        beta = _batch_coefficient(group, rng)
        # (g**s / (t1 * u**c))**alpha * (h**s / (t2 * v**c))**beta
        g_exponent += alpha * proof.s
        pairs.append((u, -alpha * c))
        pairs.append((proof.t1, -alpha))
        pairs.append((h, beta * proof.s))
        pairs.append((v, -beta * c))
        pairs.append((proof.t2, -beta))
    pairs.append((group.g, g_exponent))
    return group.multiexp(pairs) == group.identity()


def batch_verify_dleq_or(group: Group, items: Sequence[DleqOrItem], rng=None) -> bool:
    """Check many disjunctive proofs with one multi-exponentiation.

    The four equations of each OR transcript get independent coefficients;
    see :func:`batch_verify_dleq`.  On ``False`` use
    :func:`find_invalid_dleq_or` to name exact culprits.
    """
    pairs: list[tuple[int, int]] = []
    g_exponent = 0
    for statements, proof, context in items:
        if not _or_checks(group, statements, proof):
            return False
        c1, c2 = _or_split(group, statements, proof, context)
        commitments = ((proof.t11, proof.t12), (proof.t21, proof.t22))
        for (u, h, v), (t1, t2), c, s in zip(
            statements, commitments, (c1, c2), (proof.s1, proof.s2)
        ):
            alpha = _batch_coefficient(group, rng)
            beta = _batch_coefficient(group, rng)
            g_exponent += alpha * s
            pairs.append((u, -alpha * c))
            pairs.append((t1, -alpha))
            pairs.append((h, beta * s))
            pairs.append((v, -beta * c))
            pairs.append((t2, -beta))
    pairs.append((group.g, g_exponent))
    return group.multiexp(pairs) == group.identity()


def _bisect_invalid(
    indices: list[int],
    batch_ok: Callable[[list[int]], bool],
    verify_one: Callable[[int], bool],
    known_failed: bool = False,
) -> list[int]:
    """Culprit isolation: recursive bisection with per-proof leaf rechecks.

    The documented fallback behind the batch API: a failed batch is split
    in half and each half re-batched; single-proof leaves are verified
    individually, so the returned culprit set is *exactly* the proofs an
    unbatched verifier would reject — batching never blurs blame.  Cost is
    O(bad * log n) batch checks, paid only on the (rare) failing path.
    ``known_failed`` skips the batch check when the caller already saw
    this exact index set fail.
    """
    if len(indices) == 1:
        return [] if verify_one(indices[0]) else indices
    if not known_failed and batch_ok(indices):
        return []
    mid = len(indices) // 2
    return _bisect_invalid(indices[:mid], batch_ok, verify_one) + _bisect_invalid(
        indices[mid:], batch_ok, verify_one
    )


def find_invalid_dleq(
    group: Group,
    items: Sequence[DleqItem],
    rng=None,
    known_failed: bool = False,
) -> tuple[int, ...]:
    """Indices of the invalid proofs among ``items`` (exact culprit set).

    Fast path: one batched check accepting everything.  Failing batches
    fall back to :func:`_bisect_invalid`.  Callers that already watched
    the full batch fail pass ``known_failed=True`` to skip re-running it.
    """
    if not items:
        return ()
    return tuple(
        _bisect_invalid(
            list(range(len(items))),
            lambda idx: batch_verify_dleq(group, [items[i] for i in idx], rng),
            lambda i: verify_dleq(group, *items[i][:3], items[i][3], items[i][4]),
            known_failed,
        )
    )


def find_invalid_dleq_or(
    group: Group,
    items: Sequence[DleqOrItem],
    rng=None,
    known_failed: bool = False,
) -> tuple[int, ...]:
    """Indices of the invalid OR proofs among ``items`` (exact culprit set).

    See :func:`find_invalid_dleq` for the ``known_failed`` contract.
    """
    if not items:
        return ()
    return tuple(
        _bisect_invalid(
            list(range(len(items))),
            lambda idx: batch_verify_dleq_or(group, [items[i] for i in idx], rng),
            lambda i: verify_dleq_or(group, items[i][0], items[i][1], items[i][2]),
            known_failed,
        )
    )
