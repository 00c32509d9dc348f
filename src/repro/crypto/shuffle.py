"""Verifiable decryption mix cascade (the paper's §3.10 shuffle).

Dissent schedules DC-net slots by shuffling client pseudonym keys so that
"no subset of clients or servers knows the permutation", and reuses the
same machinery for accusation shuffles.  The paper uses Neff's verifiable
shuffle; it also notes that "Dissent depends minimally on the shuffle's
implementation details, so many shuffle algorithms should be usable".

We implement a mix cascade with per-server verifiability:

1. **Permute + re-randomize.**  Server j draws a secret permutation psi,
   re-randomizes every input once under the *remaining* combined key (its
   own and all later servers') and proves it with the Terelius–Wikström
   proof of shuffle (Terelius and Wikström, "Proofs of Restricted
   Shuffles", AFRICACRYPT 2010), as GenShuffleProof / CheckShuffleProof of
   Haenni, Locher, Koenig and Dubuis, "Pseudo-Code Algorithms for
   Verifiable Re-Encryption Mix-Nets" (FC 2017) write it out: Pedersen
   commitments ``c_j = g**r_j * h_i`` to the permutation (output i carries
   input j), a commitment chain from ``h_0`` showing that the committed
   matrix permutes challenges ``u_j`` hashed from the statement, and one
   Fiat–Shamir challenge over the chain and every ``t`` tying it to the
   re-encryption.  Width-W vectors share the one permutation commitment
   and get one ``(t4, s4)`` pair per component.  A mix that does not know
   a permutation and re-encryption of its inputs passes with probability
   about ``N * 2**-128`` (Schwartz–Zippel over the 128-bit ``u_j``) — the
   cut-and-choose argument this replaced allowed ``2**-16``.
2. **Strip.**  Server j then removes its ElGamal layer position-wise and
   proves the whole strip with one Chaum–Pedersen DLEQ proof,
   ``log_g y_j == log_A V`` with ``A = Π a_i**e_i`` and
   ``V = Π (b_i / b'_i)**e_i`` over every component i of the step, where
   the ``e_i`` are 128-bit coefficients hashed from the context, ``y_j``
   and every ``(a_i, b_i, b'_i)`` in order.  This is Bellare–Garay–Rabin
   small-exponent batching, as in the verifiable decryption of Haenni et
   al.: the ``e_i`` are fixed only after every component is, so a strip
   wrong in any component still makes ``V == A**x_j`` hold with
   probability about ``2**-128`` — inside the prime-order group, which
   the verifier screens every component and commitment into first.

A verifier folds every equation of both proofs into one
:meth:`Group.multiexp` with 128-bit random coefficients; ``A`` and ``V``
are never formed, their components enter the product directly.  The
generators ``h_0 … h_N`` come from
:meth:`Group.hash_to_element` over a fixed domain and their index, so
nobody knows a discrete log between them and ``g``; a shuffle derives
them once and hands the one set to :func:`run_cascade` and
:func:`verify_transcript` (:mod:`repro.core.keyshuffle`).

After the last server, the ``b`` components are bare plaintext elements.
Anytrust holds: one honest server's unrevealed permutation unlinks inputs
from outputs even if every other server colludes.

Shuffle units are **vectors** of ciphertexts so that general messages
longer than one group element can travel through the mix (the paper's
"general message shuffle"; §3.10 notes such messages must be embedded in
group elements, which is why key shuffles — width-1 vectors of bare key
elements — are the cheap case).  Per server and N inputs of width W,
proving is one re-randomization and one strip of the N·W inputs, O(N)
fixed-base walks, 1 + 2W multi-exponentiations over N bases, one over the
N·W ``a_i`` and one exponentiation; verifying is one multi-exponentiation.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.crypto import elgamal
from repro.crypto.elgamal import Ciphertext
from repro.crypto.groups import Group
from repro.crypto.hashing import challenge_scalar, sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.proofs import BATCH_COEFF_BITS, DleqProof, _batch_coefficient
from repro.errors import ShuffleError

_GENERATOR_DOMAIN = b"dissent.shuffle-generator.v1"
_PROOF_DOMAIN = b"dissent.shuffle-proof.v1"
_STRIP_DOMAIN = b"dissent.shuffle-strip.v1"

#: One shuffle unit: a fixed-width tuple of ElGamal ciphertexts.
CipherVector = tuple[Ciphertext, ...]


@dataclass(frozen=True)
class ShuffleProof:
    """Terelius–Wikström proof that a step's outputs re-encrypt a
    permutation of its inputs (Haenni et al.'s names).

    ``commitments[j]`` commits to the output position input ``j`` went to,
    ``chain`` is ``ĉ_1 … ĉ_N``; ``t1``–``t3``, ``t4`` (one pair a vector
    component: on the ``a`` and the ``b`` side) and ``t_hat`` are the
    prover's commitments, the ``s`` fields its responses.
    """

    commitments: tuple[int, ...]
    chain: tuple[int, ...]
    t1: int
    t2: int
    t3: int
    t4: tuple[tuple[int, int], ...]
    t_hat: tuple[int, ...]
    s1: int
    s2: int
    s3: int
    s4: tuple[int, ...]
    s_hat: tuple[int, ...]
    s_prime: tuple[int, ...]


@dataclass(frozen=True)
class ShuffleStep:
    """Everything one server publishes during its cascade turn.

    ``decryption_proof`` proves the whole strip, ``permuted`` to
    ``stripped``, at once (see :func:`_prove_strip`).
    """

    server_index: int
    permuted: tuple[CipherVector, ...]
    proof: ShuffleProof
    stripped: tuple[CipherVector, ...]
    decryption_proof: DleqProof


@dataclass(frozen=True)
class ShuffleTranscript:
    """The full public record of a cascade run: inputs plus every step."""

    inputs: tuple[CipherVector, ...]
    steps: tuple[ShuffleStep, ...]

    def output_vectors(self, group: Group) -> list[list[int]]:
        """Plaintext element vectors after the final strip."""
        if not self.steps:
            raise ShuffleError("transcript has no steps")
        return [
            [elgamal.final_plaintext(group, ct) for ct in vector]
            for vector in self.steps[-1].stripped
        ]

    def outputs(self, group: Group) -> list[int]:
        """Plaintext elements for width-1 shuffles (e.g. key shuffles)."""
        vectors = self.output_vectors(group)
        for vector in vectors:
            if len(vector) != 1:
                raise ShuffleError("outputs() requires width-1 vectors")
        return [vector[0] for vector in vectors]


def _vector_width(inputs: Sequence[CipherVector]) -> int:
    if not inputs:
        raise ShuffleError("shuffle needs at least one input")
    width = len(inputs[0])
    if width < 1:
        raise ShuffleError("shuffle vectors must have at least one component")
    for vector in inputs:
        if len(vector) != width:
            raise ShuffleError("all shuffle vectors must share one width")
    return width


def _generators(group: Group, count: int) -> list[int]:
    """``h_0 … h_(count-1)``: independent generators of unknown discrete log."""
    return [
        group.hash_to_element(_GENERATOR_DOMAIN + index.to_bytes(4, "big"))
        for index in range(count)
    ]


def _hash_vectors(group: Group, vectors: Sequence[CipherVector]) -> bytes:
    return sha256(*(ct.to_bytes(group) for vector in vectors for ct in vector))


def _coefficients(group: Group, digest: bytes, count: int) -> list[int]:
    """``count`` coefficients hashed from ``digest``, clamped to
    ``[1, 2**bits)`` exactly as a batch coefficient is."""
    bound = (1 << min(BATCH_COEFF_BITS, group.q.bit_length() - 1)) - 1
    return [
        1 + challenge_scalar(bound, digest, index.to_bytes(4, "big"))
        for index in range(count)
    ]


def _statement(
    group: Group,
    context: bytes,
    key: PublicKey,
    inputs: Sequence[CipherVector],
    outputs: Sequence[CipherVector],
    commitments: Sequence[int],
) -> tuple[bytes, list[int]]:
    """Digest of the statement and the ``u_j`` hashed from it."""
    digest = sha256(
        _PROOF_DOMAIN,
        sha256(context),
        key.to_bytes(),
        _hash_vectors(group, inputs),
        _hash_vectors(group, outputs),
        sha256(*map(group.element_to_bytes, commitments)),
    )
    return digest, _coefficients(group, digest, len(inputs))


def _challenge(group: Group, digest: bytes, proof_elements: Iterable[int]) -> int:
    """The main Fiat–Shamir challenge: the statement, the chain, every ``t``."""
    return group.hash_to_scalar(
        _PROOF_DOMAIN, digest, b"".join(map(group.element_to_bytes, proof_elements))
    )


def _strip_statement(
    group: Group,
    context: bytes,
    server_public: PublicKey,
    permuted: Sequence[CipherVector],
    stripped: Sequence[CipherVector],
) -> tuple[bytes, list[int]]:
    """Digest of a step's strip and the ``e_i`` hashed from it, one a
    component in order: the coefficients of ``A`` and ``V``."""
    digest = sha256(
        _STRIP_DOMAIN,
        sha256(context),
        server_public.to_bytes(),
        _hash_vectors(group, permuted),
        _hash_vectors(group, stripped),
    )
    return digest, _coefficients(group, digest, len(permuted) * len(permuted[0]))


def _strip_challenge(group: Group, digest: bytes, t1: int, t2: int) -> int:
    """The strip proof's challenge: its statement (which binds ``y``), ``t1``
    and ``t2``."""
    return group.hash_to_scalar(
        _STRIP_DOMAIN, digest, group.element_to_bytes(t1), group.element_to_bytes(t2)
    )


def _components(vectors: Sequence[CipherVector]) -> Iterable[Ciphertext]:
    return (ct for vector in vectors for ct in vector)


def _chain_and_ts(chain, t1, t2, t3, t4, t_hat) -> list[int]:
    return [*chain, t1, t2, t3, *(value for pair in t4 for value in pair), *t_hat]


def _prove(
    group: Group,
    key: PublicKey,
    h: Sequence[int],
    inputs: Sequence[CipherVector],
    outputs: Sequence[CipherVector],
    psi: Sequence[int],
    rerandomizers: Sequence[Sequence[int]],
    context: bytes,
    rng: random.Random | None,
) -> ShuffleProof:
    """GenShuffleProof: output ``i`` is input ``psi[i]`` re-randomized by
    ``rerandomizers[i]`` under ``key``; ``h`` is ``h_0 … h_N``."""
    q, g, h0 = group.q, group.g, h[0]
    n, width = len(inputs), len(inputs[0])

    def scalars(count: int) -> list[int]:
        return [group.random_scalar(rng) for _ in range(count)]

    # Column j of the permutation matrix: the output positions fed by input
    # j (exactly one for a permutation).
    r = scalars(n)
    columns: list[list[int]] = [[] for _ in range(n)]
    for i, j in enumerate(psi):
        columns[j].append(i)
    commitments = tuple(
        group.multiexp(((g, r[j]), *((h[i + 1], 1) for i in columns[j])))
        for j in range(n)
    )
    digest, u = _statement(group, context, key, inputs, outputs, commitments)
    u_out = [u[j] for j in psi]

    # The chain from h_0: the prover knows each link as g**R * h_0**U, so a
    # link and its t_hat are two table walks instead of a ladder on ĉ_(i-1).
    r_hat, omega_hat, omega_prime = scalars(n), scalars(n), scalars(n)
    big_r, big_u = 0, 1
    chain, t_hat = [], []
    for i in range(n):
        # t_hat_i = g**omega_hat_i * ĉ_(i-1)**omega'_i
        g_part = omega_hat[i] + omega_prime[i] * big_r
        t_hat.append(
            group.multiexp(((g, g_part), (h0, omega_prime[i] * big_u)))
        )
        big_r = (r_hat[i] + u_out[i] * big_r) % q
        big_u = big_u * u_out[i] % q
        chain.append(group.multiexp(((g, big_r), (h0, big_u))))

    omega1, omega2, omega3, *omega4 = scalars(3 + width)
    t3 = group.multiexp(((g, omega3), *zip(h[1:], omega_prime)))
    t4 = tuple(
        (
            group.multiexp(
                ((g, -o), *((row[w].a, x) for row, x in zip(outputs, omega_prime)))
            ),
            group.multiexp(
                ((key.y, -o), *((row[w].b, x) for row, x in zip(outputs, omega_prime)))
            ),
        )
        for w, o in enumerate(omega4)
    )
    t1, t2 = group.exp_g(omega1), group.exp_g(omega2)
    c = _challenge(group, digest, _chain_and_ts(chain, t1, t2, t3, t4, t_hat))
    s4 = tuple(
        (o + c * sum(row[w] * x for row, x in zip(rerandomizers, u_out))) % q
        for w, o in enumerate(omega4)
    )
    return ShuffleProof(
        commitments, tuple(chain), t1, t2, t3, t4, tuple(t_hat),
        (omega1 + c * sum(r)) % q,
        (omega2 + c * big_r) % q,
        (omega3 + c * sum(rj * uj for rj, uj in zip(r, u))) % q,
        s4,
        tuple((o + c * x) % q for o, x in zip(omega_hat, r_hat)),
        tuple((o + c * x) % q for o, x in zip(omega_prime, u_out)),
    )  # fmt: skip


def shuffle_step(
    server_key: PrivateKey,
    remaining_keys: Sequence[PublicKey],
    inputs: Sequence[CipherVector],
    server_index: int,
    context: bytes = b"",
    rng: random.Random | None = None,
    generators: Sequence[int] | None = None,
) -> ShuffleStep:
    """Run one server's cascade turn and emit its public step record.

    Args:
        server_key: this server's ElGamal private key.
        remaining_keys: public keys of this server and all later servers —
            the layers still wrapped around the inputs.
        inputs: ciphertext vectors from the previous server (or clients).
        server_index: position in the cascade (recorded in the transcript).
        context: domain-separation bytes binding the run (group id, round,
            shuffle purpose) into the Fiat-Shamir challenges.
        rng: deterministic randomness for tests — the permutation, the
            re-randomization and the proof of shuffle's nonces; None uses
            the OS CSPRNG (which the strip proof's nonce always comes from).
        generators: ``h_0 … h_N`` for ``N = len(inputs)``, when the caller
            already derived them.
    """
    group = server_key.group
    if not remaining_keys or remaining_keys[0].y != server_key.y:
        raise ShuffleError("remaining_keys must start with this server's own key")
    width = _vector_width(inputs)
    n = len(inputs)
    key = elgamal.combined_key(remaining_keys)
    for vector in inputs:
        for ct in vector:
            ct.validate(group)

    # Step 1: the permutation (output i carries input psi[i]) and one
    # re-randomization of every component, proven in zero knowledge.
    psi = list(range(n))
    (rng or secrets.SystemRandom()).shuffle(psi)
    rerandomizers = [[group.random_scalar(rng) for _ in range(width)] for _ in range(n)]
    permuted = tuple(
        tuple(
            elgamal.rerandomize(key, ct, r)[0]
            for ct, r in zip(inputs[j], rerandomizers[i])
        )
        for i, j in enumerate(psi)
    )
    proof = _prove(
        group, key, generators or _generators(group, n + 1), inputs, permuted, psi,
        rerandomizers, context, rng,
    )  # fmt: skip

    # Step 2: position-preserving verifiable decryption of our own layer.
    x = server_key.x
    stripped = tuple(
        tuple(
            Ciphertext(ct.a, group.multiexp(((ct.b, 1), (group.exp(ct.a, x), -1))))
            for ct in vector
        )
        for vector in permuted
    )
    strip_proof = _prove_strip(server_key, permuted, stripped, context)
    return ShuffleStep(server_index, permuted, proof, stripped, strip_proof)


def _prove_strip(
    server_key: PrivateKey,
    permuted: Sequence[CipherVector],
    stripped: Sequence[CipherVector],
    context: bytes,
) -> DleqProof:
    """The one DLEQ proof of a step's strip: ``log_g y == log_A V`` with
    ``A = Π a_i**e_i``.  ``V`` is never formed — the challenge hashes the
    statement the ``e_i`` come from instead.  The nonce comes from the OS
    CSPRNG, as :func:`repro.crypto.proofs.prove_dleq`'s does, so a caller's
    seeded ``rng`` (a session checkpoints its state) draws the same values
    whatever the strip."""
    group = server_key.group
    digest, e = _strip_statement(group, context, server_key.public, permuted, stripped)
    a_combined = group.multiexp([*zip((ct.a for ct in _components(permuted)), e)])
    k = group.random_scalar()
    t1, t2 = group.exp_g(k), group.exp(a_combined, k)
    c = _strip_challenge(group, digest, t1, t2)
    return DleqProof(t1, t2, (k + c * server_key.x) % group.q)


def _all_elements(group: Group, values: Iterable[int]) -> bool:
    """True iff every value is a group element.

    ``Group.is_element`` is a Jacobi symbol on modp and a cached point
    decode on ec25519; a value that recurs is tested once.
    """
    checked: set[int] = set()
    for value in values:
        if value not in checked:
            if not group.is_element(value):
                return False
            checked.add(value)
    return True


def _shuffle_terms(
    group: Group,
    key: PublicKey,
    h: Sequence[int],
    inputs: Sequence[CipherVector],
    outputs: Sequence[CipherVector],
    proof: ShuffleProof,
    proof_elements: Sequence[int],
    context: bytes,
) -> list[tuple[int, int]]:
    """CheckShuffleProof as ``(base, exponent)`` terms of one product.

    Each equation ``t == t'`` is raised to its own short random coefficient
    — kept by ``t``, negated on everything else — so the product is the
    identity iff (but for probability ``2**-128``) each holds.  The caller
    has screened every element for membership: outside the order-q
    subgroup, small-order components could cancel a random combination.
    """
    q, g, h0 = group.q, group.g, h[0]
    n = len(inputs)
    digest, u = _statement(group, context, key, inputs, outputs, proof.commitments)
    c = _challenge(group, digest, proof_elements[n:])
    alpha1, alpha2, alpha3 = (_batch_coefficient(group) for _ in range(3))
    pairs = [(proof.t1, alpha1), (proof.t2, alpha2), (proof.t3, alpha3)]
    g_exponent = -(alpha1 * proof.s1 + alpha2 * proof.s2 + alpha3 * proof.s3)
    key_exponent = 0
    for w, ((t4a, t4b), s4) in enumerate(zip(proof.t4, proof.s4)):
        beta, gamma = _batch_coefficient(group), _batch_coefficient(group)
        pairs += [(t4a, beta), (t4b, gamma)]
        g_exponent += beta * s4
        key_exponent += gamma * s4
        for source, target, u_j, s in zip(inputs, outputs, u, proof.s_prime):
            pairs += [(source[w].a, c * u_j * beta), (source[w].b, c * u_j * gamma)]
            pairs += [(target[w].a, -beta * s), (target[w].b, -gamma * s)]
    u_product = 1
    for j in range(n):
        u_product = u_product * u[j] % q
        pairs.append((proof.commitments[j], c * (alpha1 + alpha3 * u[j])))
        pairs.append((h[j + 1], -(c * alpha1 + alpha3 * proof.s_prime[j])))
    pairs += [(h0, -alpha2 * c * u_product), (proof.chain[-1], alpha2 * c)]
    previous = h0
    for link, t_hat, s_hat, s_prime in zip(
        proof.chain, proof.t_hat, proof.s_hat, proof.s_prime
    ):
        delta = _batch_coefficient(group)
        g_exponent -= delta * s_hat
        pairs += [(t_hat, delta), (link, c * delta), (previous, -delta * s_prime)]
        previous = link
    pairs += [(g, g_exponent), (key.y, key_exponent)]
    return pairs


def _strip_terms(
    group: Group,
    server_public: PublicKey,
    permuted: Sequence[CipherVector],
    stripped: Sequence[CipherVector],
    proof: DleqProof,
    context: bytes,
) -> list[tuple[int, int]]:
    """The strip proof's ``g**s == t1 * y**c`` and ``A**s == t2 * V**c`` as
    terms of the same product, each under its own batch coefficient.

    ``A`` and ``V`` are expanded over the components, so ``a_i``, ``b_i``
    and ``b'_i`` enter with ``-beta*s*e_i``, ``beta*c*e_i`` and
    ``-beta*c*e_i`` — the first two merge with the proof of shuffle's terms
    on the same outputs.  Same screening precondition as
    :func:`_shuffle_terms`.
    """
    digest, e = _strip_statement(group, context, server_public, permuted, stripped)
    c = _strip_challenge(group, digest, proof.t1, proof.t2)
    alpha, beta = _batch_coefficient(group), _batch_coefficient(group)
    pairs = [
        (proof.t1, alpha),
        (server_public.y, alpha * c),
        (group.g, -alpha * proof.s),
        (proof.t2, beta),
    ]
    beta_s, beta_c = beta * proof.s, beta * c
    for e_i, ct, out in zip(e, _components(permuted), _components(stripped)):
        pairs += [(ct.a, -beta_s * e_i), (ct.b, beta_c * e_i), (out.b, -beta_c * e_i)]
    return pairs


def verify_step(
    server_public: PublicKey,
    remaining_keys: Sequence[PublicKey],
    inputs: Sequence[CipherVector],
    step: ShuffleStep,
    context: bytes = b"",
    generators: Sequence[int] | None = None,
) -> bool:
    """Verify one server's published cascade step.

    Checks the proof of shuffle and the strip proof with one
    multi-exponentiation.  Culprit granularity is the step itself (one
    server published it), so plain accept/reject suffices and the verdict
    matches checking every equation individually.  A malformed step —
    wrong lengths, a non-element, a scalar out of range — is a rejection,
    never an exception.
    """
    group = server_public.group
    proof, strip_proof = step.proof, step.decryption_proof
    n, width = len(inputs), len(inputs[0]) if inputs else 0
    # Every published sequence has the length the statement fixes.
    expected = (
        (n, (step.permuted, step.stripped, proof.commitments)),
        (n, (proof.chain, proof.t_hat, proof.s_hat, proof.s_prime)),
        (width, (proof.t4, proof.s4, *inputs, *step.permuted, *step.stripped)),
        (2, proof.t4),
    )
    if not n or any(len(row) != size for size, rows in expected for row in rows):
        return False
    scalars = (
        proof.s1, proof.s2, proof.s3, *proof.s4, *proof.s_hat, *proof.s_prime,
        strip_proof.s,
    )  # fmt: skip
    if not all(0 <= s < group.q for s in scalars):
        return False
    # Stripping keeps every ``a``.
    if any(
        out.a != ct.a
        for ct, out in zip(_components(step.permuted), _components(step.stripped))
    ):
        return False
    # Everything below hashes and does group algebra on published values;
    # a non-element anywhere must be a rejection, not an exception.
    proof_elements = [
        *proof.commitments,
        *_chain_and_ts(
            proof.chain, proof.t1, proof.t2, proof.t3, proof.t4, proof.t_hat
        ),
    ]
    components = (
        value
        for rows in (inputs, step.permuted, step.stripped)
        for ct in _components(rows)
        for value in (ct.a, ct.b)
    )
    if not _all_elements(
        group, (*components, *proof_elements, strip_proof.t1, strip_proof.t2)
    ):
        return False
    key = elgamal.combined_key(remaining_keys)
    h = generators or _generators(group, n + 1)
    pairs = _shuffle_terms(
        group, key, h, inputs, step.permuted, proof, proof_elements, context
    )
    pairs += _strip_terms(
        group, server_public, step.permuted, step.stripped, strip_proof, context
    )
    return group.multiexp(pairs) == group.identity()


def run_cascade(
    server_keys: Sequence[PrivateKey],
    inputs: Sequence[CipherVector],
    context: bytes = b"",
    rng: random.Random | None = None,
    generators: Sequence[int] | None = None,
) -> ShuffleTranscript:
    """Drive the full cascade through every server in order (trusted driver).

    Real deployments run each :func:`shuffle_step` on its own server; this
    helper wires the steps together for in-process sessions and tests.
    ``generators``: ``h_0 … h_N``, when the caller already derived them.
    """
    if not server_keys:
        raise ShuffleError("cascade needs at least one server")
    _vector_width(inputs)
    group = server_keys[0].group
    generators = generators or _generators(group, len(inputs) + 1)
    publics = [key.public for key in server_keys]
    current: Sequence[CipherVector] = tuple(inputs)
    steps: list[ShuffleStep] = []
    with group.pin(cascade_bases(publics, generators[0])):
        for j, key in enumerate(server_keys):
            step = shuffle_step(key, publics[j:], current, j, context, rng, generators)
            steps.append(step)
            current = step.stripped
    return ShuffleTranscript(inputs=tuple(inputs), steps=tuple(steps))


def verify_transcript(
    server_publics: Sequence[PublicKey],
    transcript: ShuffleTranscript,
    context: bytes = b"",
    generators: Sequence[int] | None = None,
) -> bool:
    """Verify a full cascade transcript against the server public keys.
    ``generators``: ``h_0 … h_N``, when the caller already derived them."""
    return failing_step(server_publics, transcript, context, generators) is None


def failing_step(
    server_publics: Sequence[PublicKey],
    transcript: ShuffleTranscript,
    context: bytes = b"",
    generators: Sequence[int] | None = None,
) -> int | None:
    """The cascade position of the first step that does not verify, or
    ``None`` when every step does: the server to blame.

    Steps are checked in order and checking stops at the first failure.
    A step missing from a short transcript fails at its server's position,
    a step past the last server at ``len(server_publics)``, and a
    transcript with no servers or no inputs at 0.
    """
    if not server_publics or not transcript.inputs:
        return 0
    group = server_publics[0].group
    generators = generators or _generators(group, len(transcript.inputs) + 1)
    current: Sequence[CipherVector] = transcript.inputs
    with group.pin(cascade_bases(server_publics, generators[0])):
        for j, (public, step) in enumerate(zip(server_publics, transcript.steps)):
            if step.server_index != j or not verify_step(
                public, server_publics[j:], current, step, context, generators
            ):
                return j
            current = step.stripped
    if len(transcript.steps) != len(server_publics):
        return min(len(transcript.steps), len(server_publics))
    return None


def cascade_bases(
    server_publics: Sequence[PublicKey], h_0: int | None = None
) -> list[int]:
    """The long-lived bases a cascade under ``server_publics`` walks.

    ``h_0`` (every link of every step's commitment chain; derived here
    unless the caller has it) and each step's combined key (every input's
    encryption and re-randomization).  :func:`run_cascade`,
    :func:`verify_transcript` and the coordinator pin them for one shuffle
    and release them when it ends.  A server's own key is not among them:
    it is one term of its step's one verification product and is never
    used while mixing, so a table for it would serve one walk.
    """
    group = server_publics[0].group
    return [
        _generators(group, 1)[0] if h_0 is None else h_0,
        *(
            elgamal.combined_key(server_publics[j:]).y
            for j in range(len(server_publics))
        ),
    ]


# --- client-side input preparation ---------------------------------------


def prepare_element_input(
    server_publics: Sequence[PublicKey],
    element: int,
    rng: random.Random | None = None,
) -> CipherVector:
    """Wrap one bare group element (e.g. a pseudonym key) for the cascade."""
    group = server_publics[0].group
    r = group.random_scalar(rng)
    return (elgamal.encrypt_layered(server_publics, element, r),)


def message_vector_width(group: Group, max_message_bytes: int) -> int:
    """Vector width needed to carry messages up to ``max_message_bytes``.

    Every participant in a message shuffle must submit the same width, or
    vector sizes would distinguish submitters.
    """
    capacity = group.message_bytes
    framed = 2 + max_message_bytes  # 2-byte length prefix
    return max(1, (framed + capacity - 1) // capacity)


def prepare_message_input(
    server_publics: Sequence[PublicKey],
    message: bytes,
    width: int,
    rng: random.Random | None = None,
) -> CipherVector:
    """Embed ``message`` into a fixed-width vector of layered ciphertexts.

    Framing: 2-byte big-endian length, then the message, zero-padded to
    fill ``width`` group elements.  An empty message (the cover traffic
    non-accusers submit to an accusation shuffle) is length 0.
    """
    group = server_publics[0].group
    capacity = group.message_bytes
    framed = len(message).to_bytes(2, "big") + message
    if len(framed) > width * capacity:
        raise ShuffleError(
            f"message of {len(message)} bytes exceeds shuffle width {width}"
        )
    framed = framed.ljust(width * capacity, b"\x00")
    vector: list[Ciphertext] = []
    for w in range(width):
        chunk = framed[w * capacity : (w + 1) * capacity]
        element = group.encode_message(chunk)
        r = group.random_scalar(rng)
        vector.append(elgamal.encrypt_layered(server_publics, element, r))
    return tuple(vector)


def decode_message_output(group: Group, elements: Sequence[int]) -> bytes:
    """Invert :func:`prepare_message_input` on one shuffled output vector."""
    framed = b"".join(group.decode_message(element) for element in elements)
    if len(framed) < 2:
        raise ShuffleError("shuffled message too short for its length prefix")
    length = int.from_bytes(framed[:2], "big")
    if length > len(framed) - 2:
        raise ShuffleError("shuffled message length prefix exceeds content")
    return framed[2 : 2 + length]
