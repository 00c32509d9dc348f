"""Verifiable decryption mix cascade (the paper's §3.10 shuffle).

Dissent schedules DC-net slots by shuffling client pseudonym keys so that
"no subset of clients or servers knows the permutation", and reuses the
same machinery for accusation shuffles.  The paper uses Neff's verifiable
shuffle; it also notes that "Dissent depends minimally on the shuffle's
implementation details, so many shuffle algorithms should be usable".

We implement a mix cascade with per-server verifiability:

1. **Permute + re-randomize.**  Server j draws a secret permutation pi and
   re-randomizes every input under the *remaining* combined key (its own
   and all later servers').  Correctness is attested by a cut-and-choose
   argument: ``lam`` independent bridge shuffles are published, and a
   Fiat-Shamir challenge bit per bridge opens either the input→bridge link
   or the bridge→output link — never both, so pi stays secret, while a
   cheating server survives with probability at most ``2**-lam``.
2. **Strip.**  Server j then removes its ElGamal layer position-wise,
   attaching a Chaum-Pedersen DLEQ proof per ciphertext that the quotient
   ``b/b'`` equals ``a**x_j`` for the server's published key.

After the last server, the ``b`` components are bare plaintext elements.
Anytrust holds: one honest server's unrevealed permutation unlinks inputs
from outputs even if every other server colludes.

Shuffle units are **vectors** of ciphertexts so that general messages
longer than one group element can travel through the mix (the paper's
"general message shuffle"; §3.10 notes such messages must be embedded in
group elements, which is why key shuffles — width-1 vectors of bare key
elements — are the cheap case).

Complexity per server is ``O(lam * N * W)`` exponentiations for N inputs
of width W — like Neff's shuffle, linear in N with a constant factor set
by the soundness level.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.crypto import elgamal
from repro.crypto.elgamal import Ciphertext
from repro.crypto.groups import Group
from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.proofs import (
    DleqProof,
    _batch_coefficient,
    batch_verify_dleq,
    prove_dleq,
)
from repro.errors import ShuffleError

#: Statistical soundness parameter: a dishonest mix survives verification
#: with probability 2**-DEFAULT_SOUNDNESS_BITS.
DEFAULT_SOUNDNESS_BITS = 16

#: One shuffle unit: a fixed-width tuple of ElGamal ciphertexts.
CipherVector = tuple[Ciphertext, ...]


@dataclass(frozen=True)
class BridgeReveal:
    """One opened branch of the cut-and-choose argument.

    ``side`` 0 opens the input→bridge link; 1 opens bridge→output.
    ``permutation[k]`` is the source index feeding position ``k`` and
    ``randomness[k][w]`` the re-randomization exponent applied to
    component ``w`` at position ``k``.
    """

    side: int
    permutation: tuple[int, ...]
    randomness: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ShuffleArgument:
    """Cut-and-choose transcript for one permute+re-randomize step."""

    bridges: tuple[tuple[CipherVector, ...], ...]
    reveals: tuple[BridgeReveal, ...]


@dataclass(frozen=True)
class ShuffleStep:
    """Everything one server publishes during its cascade turn."""

    server_index: int
    permuted: tuple[CipherVector, ...]
    argument: ShuffleArgument
    stripped: tuple[CipherVector, ...]
    decryption_proofs: tuple[tuple[DleqProof, ...], ...]


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


@dataclass
class _Bridge:
    """Prover-side bookkeeping for one bridge shuffle (never published)."""

    vectors: list[CipherVector] = field(default_factory=list)
    permutation: list[int] = field(default_factory=list)
    randomness: list[tuple[int, ...]] = field(default_factory=list)


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


def _hash_vectors(group: Group, vectors: Sequence[CipherVector]) -> bytes:
    parts = [ct.to_bytes(group) for vector in vectors for ct in vector]
    return sha256(*parts) if parts else sha256(b"empty")


def _challenge_bits(
    group: Group,
    context: bytes,
    inputs: Sequence[CipherVector],
    outputs: Sequence[CipherVector],
    bridges: Sequence[Sequence[CipherVector]],
) -> list[int]:
    """Fiat-Shamir challenge: one bit per bridge, bound to the whole step."""
    digest = sha256(
        b"dissent.shuffle-challenge.v2",
        context,
        _hash_vectors(group, inputs),
        _hash_vectors(group, outputs),
        *(_hash_vectors(group, bridge) for bridge in bridges),
    )
    bits: list[int] = []
    while len(bits) < len(bridges):
        for byte in digest:
            for shift in range(8):
                bits.append((byte >> shift) & 1)
                if len(bits) == len(bridges):
                    return bits
        digest = sha256(digest)
    return bits


def _permuted_rerandomization(
    remaining_key: PublicKey,
    inputs: Sequence[CipherVector],
    rng: random.Random | None,
    fixed_base: bool,
) -> _Bridge:
    """Apply a fresh uniform permutation + re-randomization to ``inputs``."""
    group = remaining_key.group
    n = len(inputs)
    order = list(range(n))
    if rng is None:
        for i in range(n - 1, 0, -1):
            j = secrets.randbelow(i + 1)
            order[i], order[j] = order[j], order[i]
    else:
        rng.shuffle(order)
    bridge = _Bridge(permutation=order)
    for k in range(n):
        randomness: list[int] = []
        fresh: list[Ciphertext] = []
        for ct in inputs[order[k]]:
            r = group.random_scalar(rng)
            new_ct, _ = elgamal.rerandomize(remaining_key, ct, r, fixed_base)
            fresh.append(new_ct)
            randomness.append(r)
        bridge.vectors.append(tuple(fresh))
        bridge.randomness.append(tuple(randomness))
    return bridge


def shuffle_step(
    server_key: PrivateKey,
    remaining_keys: Sequence[PublicKey],
    inputs: Sequence[CipherVector],
    server_index: int,
    soundness_bits: int = DEFAULT_SOUNDNESS_BITS,
    context: bytes = b"",
    rng: random.Random | None = None,
    fixed_base: bool = True,
) -> ShuffleStep:
    """Run one server's cascade turn and emit its public step record.

    Args:
        server_key: this server's ElGamal private key.
        remaining_keys: public keys of this server and all later servers —
            the layers still wrapped around the inputs.
        inputs: ciphertext vectors from the previous server (or clients).
        server_index: position in the cascade (recorded in the transcript).
        soundness_bits: number of cut-and-choose bridges (``lam``).
        context: domain-separation bytes binding the run (group id, round,
            shuffle purpose) into the Fiat-Shamir challenge.
        rng: deterministic randomness for tests; None uses the OS CSPRNG.
        fixed_base: re-randomize on the fixed-base tables (see
            :func:`repro.crypto.elgamal.rerandomize`); the published step
            is the same either way.
    """
    group = server_key.group
    if not remaining_keys or remaining_keys[0].y != server_key.y:
        raise ShuffleError("remaining_keys must start with this server's own key")
    if soundness_bits < 1:
        raise ShuffleError("soundness_bits must be at least 1")
    _vector_width(inputs)
    remaining_key = elgamal.combined_key(remaining_keys)
    for vector in inputs:
        for ct in vector:
            ct.validate(group)

    # Step 1: the real permutation + re-randomization.
    main = _permuted_rerandomization(remaining_key, inputs, rng, fixed_base)

    # Step 2: bridge shuffles for the cut-and-choose argument.
    bridges = [
        _permuted_rerandomization(remaining_key, inputs, rng, fixed_base)
        for _ in range(soundness_bits)
    ]
    bits = _challenge_bits(
        group, context, inputs, main.vectors, [b.vectors for b in bridges]
    )

    reveals: list[BridgeReveal] = []
    for bridge, bit in zip(bridges, bits):
        if bit == 0:
            # Open input -> bridge: the bridge's own permutation/randomness.
            reveals.append(
                BridgeReveal(
                    0, tuple(bridge.permutation), tuple(bridge.randomness)
                )
            )
        else:
            # Open bridge -> output: rho maps each output position to the
            # bridge position carrying the same plaintext; the randomness
            # delta completes the re-randomization chain.
            inverse = [0] * len(bridge.permutation)
            for position, source in enumerate(bridge.permutation):
                inverse[source] = position
            rho = [inverse[source] for source in main.permutation]
            delta = [
                tuple(
                    (main_r - bridge_r) % group.q
                    for main_r, bridge_r in zip(
                        main.randomness[k], bridge.randomness[rho[k]]
                    )
                )
                for k in range(len(inputs))
            ]
            reveals.append(BridgeReveal(1, tuple(rho), tuple(delta)))

    argument = ShuffleArgument(
        bridges=tuple(tuple(b.vectors) for b in bridges),
        reveals=tuple(reveals),
    )

    # Step 3: position-preserving verifiable decryption of our own layer.
    stripped: list[CipherVector] = []
    proofs: list[tuple[DleqProof, ...]] = []
    for vector in main.vectors:
        out_vector: list[Ciphertext] = []
        proof_vector: list[DleqProof] = []
        for ct in vector:
            out_vector.append(elgamal.strip_layer(server_key, ct))
            proof_vector.append(
                prove_dleq(group, server_key.x, ct.a, context=context + b"|strip")
            )
        stripped.append(tuple(out_vector))
        proofs.append(tuple(proof_vector))

    return ShuffleStep(
        server_index=server_index,
        permuted=tuple(main.vectors),
        argument=argument,
        stripped=tuple(stripped),
        decryption_proofs=tuple(proofs),
    )


#: One re-randomization link equation: target == source rerandomized by r.
_LinkEquation = tuple[Ciphertext, Ciphertext, int]


def _link_equations(
    source: Sequence[CipherVector],
    target: Sequence[CipherVector],
    permutation: Sequence[int],
    randomness: Sequence[Sequence[int]],
) -> list[_LinkEquation] | None:
    """Structural screen of one opened branch; returns its link equations.

    Checks target[k] == rerandomize(source[permutation[k]], randomness[k])
    *shape-wise* (permutation validity, vector widths) and emits one
    ``(src, tgt, r)`` triple per ciphertext component for the batched
    algebra check.  Returns None when the shape itself is wrong.
    """
    n = len(source)
    if sorted(permutation) != list(range(n)) or len(randomness) != n:
        return None
    equations: list[_LinkEquation] = []
    for k in range(n):
        src_vector = source[permutation[k]]
        tgt_vector = target[k]
        r_vector = randomness[k]
        if len(src_vector) != len(tgt_vector) or len(r_vector) != len(src_vector):
            return None
        equations.extend(zip(src_vector, tgt_vector, r_vector))
    return equations


def _all_elements(group: Group, *published: Sequence[CipherVector]) -> bool:
    """True iff every ciphertext component in ``published`` is a group element.

    ``Group.is_element`` is a Jacobi symbol on modp and a cached point
    decode on ec25519; a value that recurs is tested once.
    """
    checked: set[int] = set()
    for vectors in published:
        for vector in vectors:
            for ct in vector:
                for value in (ct.a, ct.b):
                    if value in checked:
                        continue
                    if not group.is_element(value):
                        return False
                    checked.add(value)
    return True


def _batch_verify_links(
    remaining_key: PublicKey,
    equations: Sequence[_LinkEquation],
    rng=None,
) -> bool:
    """Check every opened re-randomization link with one multi-exponentiation.

    Each equation pair ``tgt.a == src.a * g**r`` / ``tgt.b == src.b * y**r``
    is raised to independent short random coefficients and folded into a
    single product that must equal the identity — exactly how the strip
    proofs batch.  The generator and the remaining combined key absorb all
    the full-width exponent mass through their fixed-base tables, so a
    cut-and-choose argument with ``lam`` bridges costs one multi-exp
    instead of ``2*lam*N*W`` exponentiations.

    The caller has screened every element for membership
    (:func:`_all_elements`): outside the order-q subgroup, small-order
    components could cancel a random linear combination with noticeable
    probability.
    """
    group = remaining_key.group
    left: list[tuple[int, int]] = []
    right: list[tuple[int, int]] = []
    g_exponent = 0
    y_exponent = 0
    for src, tgt, r in equations:
        alpha = _batch_coefficient(group, rng)
        beta = _batch_coefficient(group, rng)
        # (src.a * g**r)**alpha * (src.b * y**r)**beta == tgt.a**alpha * tgt.b**beta
        # The sides are compared directly so every transient exponent stays
        # at coefficient width (negating one side mod q would make its
        # exponents full-width and stretch the shared Pippenger ladder).
        g_exponent += alpha * r
        y_exponent += beta * r
        left.append((src.a, alpha))
        left.append((src.b, beta))
        right.append((tgt.a, alpha))
        right.append((tgt.b, beta))
    left.append((group.g, g_exponent))
    left.append((remaining_key.y, y_exponent))
    return group.multiexp(left, hot_bases=(remaining_key.y,)) == group.multiexp(
        right
    )


def verify_step(
    server_public: PublicKey,
    remaining_keys: Sequence[PublicKey],
    inputs: Sequence[CipherVector],
    step: ShuffleStep,
    context: bytes = b"",
    soundness_bits: int = DEFAULT_SOUNDNESS_BITS,
) -> bool:
    """Verify one server's published cascade step.

    Checks the cut-and-choose argument (every opened branch must verify and
    match the Fiat-Shamir challenge bits) and every decryption proof.
    ``soundness_bits`` is the *verifier's* requirement: a step publishing
    fewer bridges than demanded is rejected outright — the prover must not
    get to choose its own cheating probability (an empty argument would
    otherwise verify vacuously).

    All ``lam`` opened branches' re-randomization links collapse into one
    multi-exponentiation (:func:`_batch_verify_links`), and all strip
    proofs into a second — the whole step costs two multi-exps regardless
    of the soundness parameter.  Culprit granularity is the step itself
    (one server published it), so plain accept/reject suffices and the
    verdict matches checking every link and proof individually.
    """
    group = server_public.group
    n = len(inputs)
    if len(step.permuted) != n or len(step.stripped) != n:
        return False
    if len(step.decryption_proofs) != n:
        return False
    if len(step.argument.bridges) < max(1, soundness_bits):
        return False
    # Everything below hashes and does group algebra on published values;
    # a non-element anywhere must be a rejection, not an exception.
    if not _all_elements(
        group, inputs, step.permuted, step.stripped, *step.argument.bridges
    ):
        return False
    remaining_key = elgamal.combined_key(remaining_keys)

    bits = _challenge_bits(group, context, inputs, step.permuted, step.argument.bridges)
    if len(step.argument.reveals) != len(step.argument.bridges):
        return False
    link_equations: list[_LinkEquation] = []
    for bridge, reveal, bit in zip(step.argument.bridges, step.argument.reveals, bits):
        if reveal.side != bit:
            return False
        if len(bridge) != n:
            return False
        if bit == 0:
            equations = _link_equations(
                inputs, bridge, reveal.permutation, reveal.randomness
            )
        else:
            equations = _link_equations(
                bridge, step.permuted, reveal.permutation, reveal.randomness
            )
        if equations is None:
            return False
        link_equations.extend(equations)
    if not _batch_verify_links(remaining_key, link_equations):
        return False

    # Verifiable decryption: componentwise b/b' == a**x_j, a unchanged.
    # One batched multi-exponentiation covers every strip proof of the
    # step; culprit granularity is the whole step (one server published
    # it), so a plain accept/reject batch suffices — no bisection needed.
    items = []
    for vector, out_vector, proof_vector in zip(
        step.permuted, step.stripped, step.decryption_proofs
    ):
        if len(out_vector) != len(vector) or len(proof_vector) != len(vector):
            return False
        for ct, out, proof in zip(vector, out_vector, proof_vector):
            if out.a != ct.a:
                return False
            quotient = group.multiexp(((ct.b, 1), (out.b, -1)))
            items.append(
                (server_public.y, ct.a, quotient, proof, context + b"|strip")
            )
    return batch_verify_dleq(group, items, hot_bases=(server_public.y,))


def run_cascade(
    server_keys: Sequence[PrivateKey],
    inputs: Sequence[CipherVector],
    soundness_bits: int = DEFAULT_SOUNDNESS_BITS,
    context: bytes = b"",
    rng: random.Random | None = None,
    fixed_base: bool = True,
) -> ShuffleTranscript:
    """Drive the full cascade through every server in order (trusted driver).

    Real deployments run each :func:`shuffle_step` on its own server; this
    helper wires the steps together for in-process sessions and tests.
    """
    if not server_keys:
        raise ShuffleError("cascade needs at least one server")
    publics = [key.public for key in server_keys]
    current: Sequence[CipherVector] = tuple(inputs)
    steps: list[ShuffleStep] = []
    for j, key in enumerate(server_keys):
        step = shuffle_step(
            key,
            publics[j:],
            current,
            server_index=j,
            soundness_bits=soundness_bits,
            context=context,
            rng=rng,
            fixed_base=fixed_base,
        )
        steps.append(step)
        current = step.stripped
    return ShuffleTranscript(inputs=tuple(inputs), steps=tuple(steps))


def verify_transcript(
    server_publics: Sequence[PublicKey],
    transcript: ShuffleTranscript,
    context: bytes = b"",
    soundness_bits: int = DEFAULT_SOUNDNESS_BITS,
) -> bool:
    """Verify a full cascade transcript against the server public keys.

    Every step must carry at least ``soundness_bits`` cut-and-choose
    bridges; protocol callers pass their policy's requirement.
    """
    if len(transcript.steps) != len(server_publics):
        return False
    current: Sequence[CipherVector] = transcript.inputs
    for j, (public, step) in enumerate(zip(server_publics, transcript.steps)):
        if step.server_index != j:
            return False
        if not verify_step(
            public,
            server_publics[j:],
            current,
            step,
            context,
            soundness_bits=soundness_bits,
        ):
            return False
        current = step.stripped
    return True


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
