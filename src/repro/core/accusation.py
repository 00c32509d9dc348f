"""The accusation (blame) process of paper §3.9.

Three stages:

1. **Witness bit.**  The disruption victim finds a bit that it transmitted
   as 0 in its own slot but that appeared as 1 in the round output.  The
   randomized padding of :mod:`repro.crypto.padding` guarantees any bit
   flip is such a witness with probability 1/2, so a persistent disruptor
   is caught quickly.
2. **Anonymous accusation.**  The victim signs (round, slot, bit) with its
   slot's *pseudonym* key and transmits it through an accusation shuffle —
   the disruption-resistant channel — so accusing does not deanonymize.
3. **Tracing.**  Servers reveal, for the witness position k, every pair
   stream bit ``s_ij[k]`` and the client ciphertext bits ``c_i[k]`` they
   received (backed by the clients' signatures).  Three mismatch cases:

   a. a server cannot produce validly signed ciphertext bits for the
      clients it claimed — the server is dishonest;
   b. a server's revealed bits do not XOR to the ciphertext ``s_j`` it
      committed to and sent during the round — the server is dishonest;
   c. a client's ciphertext bit differs from the XOR of its claimed pair
      stream bits — either the client XORed a message bit into a slot it
      does not own (disruption) or some server lied about ``s_ij[k]``.
      The client is asked to **rebut** by revealing the DH element it
      shares with the server it says lied, with a Chaum-Pedersen DLEQ
      proof; a valid rebuttal convicts the server, anything else convicts
      the client.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

from repro.crypto import dh, prng
from repro.crypto.groups import Group
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.proofs import DleqProof, prove_dleq, verify_dleq
from repro.crypto.schnorr import Signature, sign as schnorr_sign, verify as schnorr_verify
from repro.errors import AccusationError, TraceInconclusive
from repro.net.message import SignedEnvelope, batch_verify_envelopes
from repro.util.bytesops import get_bit
from repro.util.serialization import decode_value, pack_fields, unpack_typed

_SIG_DOMAIN = "dissent.accusation.v1"
_REBUTTAL_CONTEXT = b"dissent.rebuttal.v1"


@dataclass(frozen=True)
class Accusation:
    """A pseudonym-signed claim that one output bit was flipped 0→1."""

    round_number: int
    slot_index: int
    bit_index: int
    signature: Signature

    def signed_payload(self) -> bytes:
        return pack_fields(
            _SIG_DOMAIN, self.round_number, self.slot_index, self.bit_index
        )

    def to_bytes(self, group: Group) -> bytes:
        return pack_fields(
            self.round_number,
            self.slot_index,
            self.bit_index,
            self.signature.to_bytes(group),
        )

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "Accusation":
        """Invert :meth:`to_bytes`; :class:`WireDecodeError` if malformed."""
        round_number, slot_index, bit_index, signature = unpack_typed(
            data, "iiib", "accusation"
        )
        signature = decode_value("accusation", Signature.from_bytes, group, signature)
        return cls(round_number, slot_index, bit_index, signature)


def make_accusation(
    pseudonym: PrivateKey,
    group: Group,
    round_number: int,
    slot_index: int,
    bit_index: int,
) -> Accusation:
    """Sign an accusation with the slot's pseudonym key."""
    payload = pack_fields(_SIG_DOMAIN, round_number, slot_index, bit_index)
    return Accusation(round_number, slot_index, bit_index, schnorr_sign(pseudonym, payload))


def verify_accusation(slot_key: PublicKey, accusation: Accusation) -> bool:
    """Check the pseudonym signature of the accused slot's owner."""
    return schnorr_verify(slot_key, accusation.signed_payload(), accusation.signature)


def accusation_max_bytes(group: Group) -> int:
    """Worst-case serialized accusation size (fixes the shuffle width).

    Every accusation-shuffle participant must submit an identically sized
    vector, so the width is derived from this bound, not from any
    particular accusation.
    """
    # pack_fields overhead: 5 bytes per field; three 8-byte integers plus a
    # commitment-form signature (one group element + one scalar).
    return 3 * (5 + 8) + 5 + group.element_bytes + group.scalar_bytes


@dataclass(frozen=True)
class Rebuttal:
    """A client's proof that a specific server lied about their pair bit.

    The client reveals the raw DH element it shares with that server plus
    a DLEQ proof that the element really is ``g**(x_i * x_j)`` — verifiable
    against both public keys without exposing either private key.
    """

    server_index: int
    dh_element: int
    proof: DleqProof


def make_rebuttal(
    client_key: PrivateKey, server_public: PublicKey, server_index: int
) -> Rebuttal:
    """Build a rebuttal naming ``server_index`` as the equivocator."""
    element = dh.shared_element(client_key, server_public)
    proof = prove_dleq(
        client_key.group, client_key.x, server_public.y, context=_REBUTTAL_CONTEXT
    )
    return Rebuttal(server_index, element, proof)


def verify_rebuttal(
    group: Group,
    client_public: PublicKey,
    server_public: PublicKey,
    rebuttal: Rebuttal,
) -> bool:
    """Check the DLEQ: log_g(client_pub) == log_{server_pub}(dh_element)."""
    return verify_dleq(
        group,
        client_public.y,
        server_public.y,
        rebuttal.dh_element,
        rebuttal.proof,
        context=_REBUTTAL_CONTEXT,
    )


@dataclass(frozen=True)
class TraceDisclosure:
    """What one server reveals for the witness bit position.

    Attributes:
        server_index: who is disclosing.
        client_envelopes: the signed client submissions this server fed
            into its ciphertext (evidence for the ``c_i[k]`` bits).
        pair_bits: claimed PRNG bits ``s_ij[k]`` for every client i in the
            round's final list l.
    """

    server_index: int
    client_envelopes: Mapping[int, SignedEnvelope]
    pair_bits: Mapping[int, int]


@dataclass(frozen=True)
class TraceVerdict:
    """Outcome of tracing: one identified disruptor and the reason."""

    culprit_kind: str  # "client" | "server"
    culprit_index: int
    reason: str


@dataclass(frozen=True)
class RoundEvidence:
    """The honest verifier's archived view of the accused round.

    Attributes:
        final_list: the composite client list l.
        assignment: client index → server index whose ciphertext integration
            covered that client (the deduplicated l'_j sets).
        server_ciphertexts: every server's revealed ``s_j`` blob.
        cleartext: the certified round output.
        total_bytes: the round's vector length (layout-derived).
    """

    round_number: int
    final_list: tuple[int, ...]
    assignment: Mapping[int, int]
    server_ciphertexts: Sequence[bytes]
    cleartext: bytes
    total_bytes: int
    slot_bit_ranges: Mapping[int, tuple[int, int]]


RebuttalOracle = Callable[[int, int, int, Mapping[int, int]], Rebuttal | None]


def validate_accusation(
    evidence: RoundEvidence,
    slot_keys: Sequence[PublicKey],
    accusation: Accusation,
) -> None:
    """Reject accusations that are unsigned, out of range, or point at a 0.

    Raises:
        AccusationError: if the accusation cannot possibly be traced.
    """
    if accusation.round_number != evidence.round_number:
        raise AccusationError("accusation round does not match archived evidence")
    if not 0 <= accusation.slot_index < len(slot_keys):
        raise AccusationError("accusation names a nonexistent slot")
    if not verify_accusation(slot_keys[accusation.slot_index], accusation):
        raise AccusationError("accusation pseudonym signature invalid")
    bit_range = evidence.slot_bit_ranges.get(accusation.slot_index)
    if bit_range is None:
        raise AccusationError("accused slot was closed in that round")
    if not bit_range[0] <= accusation.bit_index < bit_range[1]:
        raise AccusationError("witness bit lies outside the accuser's slot")
    if get_bit(evidence.cleartext, accusation.bit_index) != 1:
        raise AccusationError("accused output bit is 0 — nothing to trace")


def run_trace(
    group: Group,
    client_publics: Sequence[PublicKey],
    server_publics: Sequence[PublicKey],
    group_id: bytes,
    evidence: RoundEvidence,
    bit_index: int,
    disclosures: Sequence[TraceDisclosure],
    rebut: RebuttalOracle,
) -> list[TraceVerdict]:
    """Trace the witness bit to its disruptor(s), from one honest server.

    Args:
        bit_index: the accused (already validated) witness bit position.
        rebut: oracle invoked for mismatching clients; in a live system
            this is a network round-trip to the client.

    Returns:
        Verdicts for every disruptor found (typically one).

    Raises:
        TraceInconclusive: if all checks pass — meaning the accusation did
            not correspond to an actual flip.
    """
    k = bit_index
    verdicts: list[TraceVerdict] = []
    disclosed = {d.server_index: d for d in disclosures}

    # --- cases (a) and (b): per-server consistency ----------------------
    convicted_servers: set[int] = set()
    for j in range(len(server_publics)):
        disclosure = disclosed.get(j)
        if disclosure is None:
            verdicts.append(TraceVerdict("server", j, "no trace disclosure"))
            convicted_servers.add(j)
            continue
        assigned = [i for i in evidence.final_list if evidence.assignment[i] == j]
        # (a) every assigned client's signed ciphertext must be produced.
        # Structural screens run per envelope; the surviving signatures
        # collapse into one batched multi-exponentiation.  The named
        # client is the first failing one in assigned order — exactly
        # what the old per-envelope loop reported.
        bad_positions: list[int] = []
        items: list[tuple[SignedEnvelope, PublicKey]] = []
        item_positions: list[int] = []
        for position, i in enumerate(assigned):
            envelope = disclosure.client_envelopes.get(i)
            if envelope is None or not _envelope_screen(envelope, group_id, evidence):
                bad_positions.append(position)
                continue
            items.append((envelope, client_publics[i]))
            item_positions.append(position)
        invalid = batch_verify_envelopes(items)
        bad_positions.extend(item_positions[idx] for idx in invalid)
        if bad_positions:
            i = assigned[min(bad_positions)]
            verdicts.append(
                TraceVerdict(
                    "server", j, f"missing/invalid ciphertext evidence for client {i}"
                )
            )
            convicted_servers.add(j)
            continue
        # Pair bits must cover the whole final list.
        if any(i not in disclosure.pair_bits for i in evidence.final_list):
            verdicts.append(TraceVerdict("server", j, "incomplete pair-bit disclosure"))
            convicted_servers.add(j)
            continue
        # (b) the disclosed bits must reproduce the committed s_j[k].
        acc = 0
        for i in evidence.final_list:
            acc ^= disclosure.pair_bits[i] & 1
        for i in assigned:
            blob = disclosure.client_envelopes[i].body
            acc ^= get_bit(blob, k)
        if acc != get_bit(evidence.server_ciphertexts[j], k):
            verdicts.append(
                TraceVerdict("server", j, "disclosed bits do not match committed s_j")
            )
            convicted_servers.add(j)

    # --- case (c): per-client accumulation across servers ---------------
    for i in evidence.final_list:
        home = evidence.assignment[i]
        if home in convicted_servers:
            continue  # evidence chain broken; the convicted server answers
        envelope = disclosed[home].client_envelopes[i]
        c_bit = get_bit(envelope.body, k)
        claimed = {
            j: disclosed[j].pair_bits[i] & 1
            for j in range(len(server_publics))
            if j not in convicted_servers
        }
        if len(claimed) != len(server_publics):
            continue
        stream_xor = 0
        for bit in claimed.values():
            stream_xor ^= bit
        if c_bit == stream_xor:
            continue
        # Mismatch: the client XORed a 1 here, or some server lied.
        rebuttal = rebut(i, evidence.round_number, k, claimed)
        verdicts.append(
            _judge_rebuttal(
                group,
                client_publics,
                server_publics,
                evidence,
                i,
                k,
                claimed,
                rebuttal,
            )
        )

    if not verdicts:
        raise TraceInconclusive(
            "all disclosed bits consistent: the accusation names no real flip"
        )
    return verdicts


def _envelope_screen(
    envelope: SignedEnvelope,
    group_id: bytes,
    evidence: RoundEvidence,
) -> bool:
    """Structural validation of a disclosed client submission.

    Signature checks are batched separately (one multi-exponentiation per
    disclosing server) by the case (a) loop in :func:`run_trace`.
    """
    if envelope.round_number != evidence.round_number:
        return False
    if envelope.group_id != group_id:
        return False
    return len(envelope.body) == evidence.total_bytes


def _judge_rebuttal(
    group: Group,
    client_publics: Sequence[PublicKey],
    server_publics: Sequence[PublicKey],
    evidence: RoundEvidence,
    client_index: int,
    bit_index: int,
    claimed: Mapping[int, int],
    rebuttal: Rebuttal | None,
) -> TraceVerdict:
    """Decide case (c): convict the client or the server it exposes."""
    if rebuttal is None:
        return TraceVerdict(
            "client", client_index, "ciphertext bit mismatch and no rebuttal"
        )
    j = rebuttal.server_index
    if j not in claimed:
        return TraceVerdict("client", client_index, "rebuttal names an invalid server")
    if not verify_rebuttal(
        group, client_publics[client_index], server_publics[j], rebuttal
    ):
        return TraceVerdict("client", client_index, "rebuttal DLEQ proof invalid")
    secret = dh.secret_from_element(group, rebuttal.dh_element)
    true_bit = prng.pair_stream_bit(secret, evidence.round_number, bit_index)
    if true_bit != claimed[j]:
        return TraceVerdict(
            "server",
            j,
            f"equivocated pair bit for client {client_index} (proven by rebuttal)",
        )
    return TraceVerdict(
        "client", client_index, "rebuttal shows all servers honest — self-convicting"
    )


def trace_accusation(
    group: Group,
    client_publics: Sequence[PublicKey],
    server_publics: Sequence[PublicKey],
    slot_keys: Sequence[PublicKey],
    group_id: bytes,
    evidence: RoundEvidence,
    accusation: Accusation,
    disclosures: Sequence[TraceDisclosure],
    rebut: RebuttalOracle,
) -> list[TraceVerdict]:
    """Validate an accusation and run the full trace (the public entry point)."""
    validate_accusation(evidence, slot_keys, accusation)
    return run_trace(
        group,
        client_publics,
        server_publics,
        group_id,
        evidence,
        accusation.bit_index,
        disclosures,
        rebut,
    )
