"""Verifiable mode: every contribution proven well-formed before servers
combine anything (Verdict's base protocol).

A verifiable group is a :class:`~repro.core.session.DissentSession` whose
policy says ``dcnet_mode="verifiable"``.  The coordinator's key shuffle
gives it its slots, and its round loop, records, expulsions and delivery
log serve the mode; only the round is routed here
(:func:`route_verifiable_round`, the session's ``_route_round``):

1. Round r serves slot r mod N, on Verdict's round-robin schedule: slot s
   belongs to ``slot_elements[s]``, the pseudonym key the shuffle placed
   there, and its owner may transmit while everyone else covers.
2. Every submitter sends an ElGamal chunk vector with disjunctive proofs
   ("encrypts identity OR I hold the slot key" — see
   :mod:`repro.verdict.ciphertext`), built by
   :meth:`~repro.core.client.DissentClient.verifiable_submission`.
3. Every server verifies every proof.  An invalid submission expels its
   sender in the round it was sent — the proactive accountability the XOR
   pipeline lacks: no witness bit, no accusation shuffle, no extra rounds.
4. Servers publish proven decryption shares; a bad share convicts its
   server and the round is filed FAILED.  Otherwise the surviving product
   opens to the slot payload, which every server signs as the round's
   output.

Steps 3 and 4 are :func:`verifiable_round`, written once: the hybrid
replay (:mod:`repro.verdict.hybrid`) opens each corrupted chunk through
the same function and the same :class:`VerdictServer` checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.accusation import TraceVerdict
from repro.core.rounds import RoundOutput, RoundRecord, output_digest
from repro.crypto import elgamal
from repro.crypto.groups import Group
from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.schnorr import sign
from repro.errors import ProtocolError
from repro.obs import NULL_REGISTRY
from repro.verdict.ciphertext import (
    VerdictClientCiphertext,
    VerdictServerShare,
    batch_verify_client_ciphertexts,
    batch_verify_server_shares,
    chunk_count,
    combine_client_ciphertexts,
    decode_round,
    make_server_share,
    open_round,
)

_SESSION_DOMAIN = b"dissent.verdict.session.v1"


class VerdictServer:
    """One anytrust server of the verifiable DC-net.

    Every method takes a ``chunk_start``: a hybrid replay re-opens one
    chunk of a corrupted slot at a time, and proofs stay bound to their
    absolute chunk positions.
    """

    def __init__(
        self,
        group: Group,
        index: int,
        key: PrivateKey,
        server_publics: list[PublicKey],
        slot_keys: list[int],
        combined_key: PublicKey,
        session_id: bytes,
    ) -> None:
        self.group = group
        self.index = index
        self.key = key
        self.server_publics = server_publics
        self.slot_keys = slot_keys
        self.combined_key = combined_key
        # Every round checks client proofs under the combined key and
        # every server's share proofs under its key.
        self._pin = group.pin(
            [combined_key.y, *(public.y for public in server_publics)]
        )
        self.session_id = session_id

    def verify_submissions(
        self,
        round_number: int,
        slot_index: int,
        width: int,
        submissions: list[VerdictClientCiphertext],
        chunk_start: int = 0,
    ) -> set[int]:
        """Check every client proof; returns the rejected client indices.

        One batched multi-exponentiation per round replaces the
        per-chunk-per-client proof checks; rejections (and therefore the
        servers' bit-for-bit agreement) are identical to checking each
        submission individually — see
        :func:`repro.verdict.ciphertext.batch_verify_client_ciphertexts`.
        """
        return batch_verify_client_ciphertexts(
            self.group,
            self.combined_key,
            self.slot_keys[slot_index],
            self.session_id,
            round_number,
            slot_index,
            width,
            submissions,
            chunk_start=chunk_start,
        )

    def make_share(
        self,
        round_number: int,
        slot_index: int,
        a_parts: list[int],
        chunk_start: int = 0,
    ) -> VerdictServerShare:
        return make_server_share(
            self.group,
            self.key,
            self.index,
            a_parts,
            self.session_id,
            round_number,
            slot_index,
            chunk_start=chunk_start,
        )

    def verify_shares(
        self,
        round_number: int,
        slot_index: int,
        a_parts: list[int],
        shares: list[VerdictServerShare],
        chunk_start: int = 0,
    ) -> tuple[int, ...]:
        """Check every server's decryption share; returns blamed indices.

        All M shares' chunk proofs collapse into one batched
        multi-exponentiation (the blamed set matches per-share
        :func:`repro.verdict.ciphertext.verify_server_share` exactly).
        """
        return tuple(
            sorted(
                batch_verify_server_shares(
                    self.group,
                    self.server_publics,
                    a_parts,
                    self.session_id,
                    round_number,
                    slot_index,
                    shares,
                    chunk_start=chunk_start,
                )
            )
        )


def verifiable_round(
    servers: Sequence[VerdictServer],
    round_number: int,
    slot_index: int,
    width: int,
    submissions: list[VerdictClientCiphertext],
    chunk_start: int = 0,
    registry=NULL_REGISTRY,
) -> tuple[set[int], tuple[int, ...], bytes]:
    """Verify, combine, share, verify shares, open: one verifiable round.

    Every server checks every client proof and every decryption share — a
    single designated verifier could frame or shield servers — and honest
    servers agree bit for bit, so disagreement raises.  Returns the
    rejected client indices, the blamed server indices and the opened
    payload (empty when a server is blamed: its share cannot open the
    slot).  ``registry`` counts the proofs submitted
    (``verdict.client_proofs_made``) and, summed over the servers, the
    proofs each checked and the submissions each rejected
    (``verdict.{client_proofs_checked,share_proofs_checked,rejected_submissions}``).
    """
    group = servers[0].group
    proofs = sum(submission.width for submission in submissions)
    rejections = [
        server.verify_submissions(
            round_number, slot_index, width, submissions, chunk_start
        )
        for server in servers
    ]
    registry.counter("verdict.client_proofs_made").inc(proofs)
    registry.counter("verdict.client_proofs_checked").inc(len(servers) * proofs)
    registry.counter("verdict.rejected_submissions").inc(
        sum(len(rejection) for rejection in rejections)
    )
    rejected = rejections[0]
    if any(other != rejected for other in rejections[1:]):
        raise ProtocolError("honest servers disagree on proof verification")
    accepted = [s for s in submissions if s.client_index not in rejected]
    a_parts, b_parts = combine_client_ciphertexts(group, accepted, width)
    shares = [
        server.make_share(round_number, slot_index, a_parts, chunk_start)
        for server in servers
    ]
    votes = [
        server.verify_shares(round_number, slot_index, a_parts, shares, chunk_start)
        for server in servers
    ]
    registry.counter("verdict.share_proofs_checked").inc(
        len(servers) * len(a_parts) * len(shares)
    )
    blamed = votes[0]
    if any(vote != blamed for vote in votes[1:]):
        raise ProtocolError("honest servers disagree on share verification")
    if blamed:
        return rejected, blamed, b""
    return rejected, blamed, decode_round(group, open_round(group, b_parts, shares))


def slot_width(definition) -> int:
    """Chunks a verifiable round carries: the policy's
    ``initial_slot_payload`` in whole group elements.  Verifiable slots do
    not fragment, so a message must fit in them."""
    return chunk_count(definition.group, definition.policy.initial_slot_payload)


def verdict_servers(session, session_id: bytes) -> list[VerdictServer]:
    """One :class:`VerdictServer` per server of ``session``, on the slot
    keys its key shuffle output (``Coordinator.slot_elements``)."""
    definition = session.definition
    publics = list(definition.server_keys)
    combined = elgamal.combined_key(publics)
    return [
        VerdictServer(
            definition.group,
            j,
            server.key,
            publics,
            session.slot_elements,
            combined,
            session_id,
        )
        for j, server in enumerate(session.servers)
    ]


def session_verifiers(session) -> list[VerdictServer]:
    """A verifiable session's :class:`VerdictServer`s, built on first use
    and kept as ``session.verifiers``; their session id binds the group
    and the slot keys."""
    if not session.verifiers:
        group = session.definition.group
        session.verifiers = verdict_servers(
            session,
            sha256(
                _SESSION_DOMAIN,
                session.definition.group_id(),
                *(group.element_to_bytes(key) for key in session.slot_elements),
            ),
        )
    return session.verifiers


def route_verifiable_round(session, online: set[int] | None) -> RoundRecord:
    """Route one verifiable round of ``session`` to its filed record.

    The session's ``_route_round`` in verifiable mode: the round is issued
    and filed before the next one is built, so every window gives
    lockstep's records.  Round r serves slot r mod N.  Each submitter
    proves its contribution, every server checks every proof and share
    (:func:`verifiable_round`, built once on the session's
    :class:`VerdictServer`s), and the outcome goes through the
    coordinator: a rejected submission expels its sender by
    :meth:`~repro.core.coordinator.Coordinator.apply_verdicts` and the
    round opens without it; a blamed share convicts its server and the
    round is filed FAILED.
    """
    (begin,) = session.issue_round(online)
    r = begin.round_number
    try:
        with session.tracer.span("round", round=r, node="local"):
            lead = session_verifiers(session)[0]
            slot = r % len(lead.slot_keys)
            width = slot_width(session.definition)
            submissions = [
                session.clients[i].verifiable_submission(
                    r,
                    slot,
                    lead.slot_keys[slot],
                    width,
                    lead.session_id,
                    lead.combined_key,
                )
                for i in begin.submitters
            ]
            rejected, blamed, payload = verifiable_round(
                session.verifiers,
                r,
                slot,
                width,
                submissions,
                registry=session.registry,
            )
            session.apply_verdicts(
                [TraceVerdict("client", i, "invalid proof") for i in sorted(rejected)]
                + [TraceVerdict("server", j, "invalid share") for j in blamed]
            )
            participation = len(submissions) - len(rejected)
            output = None
            if not blamed:
                # Every server signs the opened slot, as it signs an XOR
                # round's output, so the record is one clients can verify.
                digest = output_digest(
                    session.definition.group_id(), r, payload, participation
                )
                output = RoundOutput(
                    r,
                    payload,
                    participation,
                    tuple(sign(server.key, digest) for server in session.servers),
                )
            effects = session.round_opened(r, participation, output)
    except Exception as exc:
        session.round_raised(exc)
        raise
    record = effects[-1].record
    if record.completed:
        for client in session.clients:
            client.verifiable_delivery(slot, record.output)
    return record
