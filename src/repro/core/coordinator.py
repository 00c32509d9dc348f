"""The session-level control plane, with no I/O.

Above the DC-net round the protocol has one control flow: the key shuffle
that fixes the slot schedule (§3.10), go or abandon at the participation
floor (§3.7), the M servers' round reports reduced to one certified
record, and accusation shuffle → trace → expel (§3.9).
:class:`Coordinator` is that flow and the state it keeps, written once.

It never touches a member: what it needs from one it asks for through the
abstract methods below, and a *driver* answers —
:class:`~repro.core.session.DissentSession` with method calls on the
objects it holds, :class:`~repro.net.runner.NetworkedSession` with one
blocking request/reply barrier over its transports per question.  Every
draw from ``rng`` happens here (per shuffle: one mix key per server in
server order, then the cascade), so the drivers cannot drift apart.  Like
:mod:`repro.core.engine` this module opens no socket, reads no clock and
knows no event loop.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from repro.consensus import (
    EquivocationProof,
    adopt_round_evidence,
    output_body_digest,
)
from repro.core.accusation import (
    Accusation,
    TraceVerdict,
    accusation_max_bytes,
    run_trace,
    trace_accusation,
)
from repro.core.config import GroupDefinition
from repro.core.engine import InventoryStatus, RoundDone
from repro.core.keyshuffle import (
    make_session_key,
    open_shuffle_submissions,
    run_key_shuffle,
    run_message_shuffle,
    shuffle_run_id,
    verify_session_keys,
)
from repro.core.rounds import QuietOutcome, RoundRecord, RoundStatus
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.shuffle import message_vector_width
from repro.errors import AccusationError, ProtocolError, TraceInconclusive
from repro.obs import NULL_REGISTRY, NULL_TRACER


class Coordinator:
    """One group's control plane and its state; a driver subclass answers it.

    ``server_keys`` are the servers' long-term keys in server order (the
    coordinator runs the mix cascades on their behalf); ``rng`` is the
    session's randomness, consumed only by the shuffles.  A driver defines
    :meth:`run_round` and the members' side of every exchange:

    ``_scheduling_submissions(purpose, publics)``
        every client's signed key-shuffle submission, in client order;
    ``_learn_schedule(elements)``
        hand the shuffled slot schedule to every server and client;
    ``_accusation_submissions(participants, publics, width)``
        each participant's accusation-shuffle vector (real or cover);
    ``_accusation_outcome(participants, handled)``
        tell each participant whether the phase produced a verdict;
    ``_trace_evidence(verifier, round_number, bit_index)``
        server ``verifier``'s archived :class:`RoundEvidence` and every
        server's :class:`TraceDisclosure` at the witness bit —
        :class:`AccusationError` once the round has left the archive;
    ``_rebuttal(client_index, round_number, bit_index, claimed)``
        a mismatching client's :class:`Rebuttal` of the claimed pair bits,
        or None;
    ``_expel_member(client_index)``
        remove a client from every server's roster;
    ``_pending_traffic()``
        whether any member still has a message or accusation queued.
    """

    def __init__(
        self,
        definition: GroupDefinition,
        server_keys: Sequence[PrivateKey],
        rng: random.Random,
    ) -> None:
        self.definition = definition
        self._server_keys = list(server_keys)
        # The eight mutable fields from here to ``rng`` are the whole of the
        # coordinator's state: :func:`repro.persist.codec.encode_coordinator_state`
        # is the one snapshot of them, the same section in an in-process
        # and a networked checkpoint.
        self.round_number = 0
        self.records: list[RoundRecord] = []
        self.expelled: set[int] = set()
        self.convicted_servers: set[int] = set()
        #: Transferable equivocation proofs from the round reports; part of
        #: every checkpoint so a conviction survives a restart.
        self.equivocation_proofs: list[EquivocationProof] = []
        self.scheduled = False
        #: The key shuffle's output: slot s belongs to pseudonym key s.
        self.slot_elements: list[int] = []
        self.rng = rng
        # Null sinks until a driver attaches live ones.
        self.registry = NULL_REGISTRY
        self.tracer = NULL_TRACER

    def _event(self, event: str, **fields) -> None:
        """A membership, blame or view decision was taken; a driver with an
        audit log or a flight recorder writes it down."""

    # ------------------------------------------------------------------
    # Set-up: the key shuffle establishes the slot schedule (§3.10)
    # ------------------------------------------------------------------

    def _session_keys(self, purpose: bytes) -> tuple[list[PrivateKey], list[PublicKey]]:
        """A fresh signed mix key per server, drawn in server order."""
        pairs = [
            make_session_key(key, j, purpose, self.rng)
            for j, key in enumerate(self._server_keys)
        ]
        publics = verify_session_keys(
            self.definition, [session_key for _, session_key in pairs], purpose
        )
        return [private for private, _ in pairs], publics

    def setup(self) -> None:
        """Run the scheduling key shuffle and distribute slot assignments."""
        if self.scheduled:
            raise ProtocolError("session already scheduled")
        purpose = b"dissent.key-shuffle|" + self.definition.group_id()
        privates, publics = self._session_keys(purpose)
        # Clients sign their onion-encrypted submissions (bound to this
        # run's ephemeral mix keys, so they cannot be replayed into a
        # later session); one batched multi-exponentiation authenticates
        # the whole set before the cascade spends any mixing work on it.
        submissions = open_shuffle_submissions(
            self.definition,
            self._scheduling_submissions(purpose, publics),
            shuffle_run_id(purpose, publics),
        )
        result = run_key_shuffle(
            self.definition, privates, submissions, context=purpose, rng=self.rng
        )
        self.slot_elements = list(result.slot_elements)
        self._learn_schedule(self.slot_elements)
        self.scheduled = True

    # ------------------------------------------------------------------
    # Per-round decisions
    # ------------------------------------------------------------------

    def submitters(self, online: set[int] | None) -> list[int]:
        """The clients that send a ciphertext this round, in index order."""
        if online is None:
            online = range(self.definition.num_clients)
        return sorted(i for i in online if i not in self.expelled)

    def inventory_decision(
        self, statuses: Sequence[InventoryStatus]
    ) -> tuple[int, bool]:
        """(published participation, commit-go?) from all M statuses; a
        False go is the §3.7 hard timeout."""
        participations = {status.participation for status in statuses}
        if len(participations) != 1:
            raise ProtocolError("servers disagree on the participation count")
        return participations.pop(), all(status.ok for status in statuses)

    def failed_round(
        self, r: int, participation: int, reason: str = "participation below floor"
    ) -> RoundRecord:
        """File an abandoned round; its record publishes the fresh count."""
        self._event("abandon", round=r, reason=reason, participation=participation)
        return self._file(
            RoundRecord(
                round_number=r,
                status=RoundStatus.FAILED,
                participation=participation,
                output=None,
            )
        )

    def certified_round(self, r: int, dones: Mapping[int, RoundDone]) -> RoundRecord:
        """Reduce the M servers' reports of round ``r`` to one filed record.

        The outputs must agree; the strongest valid certificate is adopted
        and every newly proven equivocation convicts its leader
        (:func:`repro.consensus.adopt_round_evidence`).
        """
        reports = list(dones.values())
        output = reports[0].output
        if any(done.output != output for done in reports):
            raise ProtocolError("servers disagree on the combined cleartext")
        certificate, convictions = adopt_round_evidence(
            self.definition,
            r,
            output_body_digest(self.definition.group, output),
            {j: done.certificate for j, done in dones.items()},
            {j: done.proof for j, done in dones.items() if done.proof is not None},
            self.convicted_servers,
            self.registry,
        )
        if certificate.view > 0:
            self._event(
                "view_change",
                round=r,
                views=certificate.view,
                leader=certificate.leader,
                votes=len(certificate.votes),
            )
        for reporter, proof in convictions:
            self.convicted_servers.add(proof.leader)
            self.equivocation_proofs.append(proof)
            self._event(
                "equivocation",
                round=proof.round_number,
                view=proof.view,
                leader=proof.leader,
                reported_by=reporter,
            )
        return self._file(
            RoundRecord(
                round_number=r,
                status=RoundStatus.COMPLETED,
                participation=output.participation,
                output=output,
                # The shuffle-request field is outside the masked payload on
                # purpose: it must stay readable even when the disruptor is
                # corrupting the rest of the slot (§3.9).
                shuffle_requested=any(done.shuffle_requested for done in reports),
                certificate=certificate,
            )
        )

    def _file(self, record: RoundRecord) -> RoundRecord:
        self.records.append(record)
        outcome = "completed" if record.completed else "failed"
        self.registry.counter(f"session.rounds_{outcome}").inc()
        if record.shuffle_requested:
            self.registry.counter("session.shuffle_requests").inc()
        return record

    def run_rounds(self, count: int, online: set[int] | None = None) -> list[RoundRecord]:
        """Run several rounds; accusation shuffles fire automatically."""
        records = []
        for _ in range(count):
            record = self.run_round(online)
            records.append(record)
            if record.shuffle_requested:
                self.run_accusation_phase()
        return records

    def run_until_quiet(self, max_rounds: int = 32) -> QuietOutcome:
        """Run rounds until no member has pending traffic.

        Returns a :class:`QuietOutcome` whose ``drained`` flag distinguishes
        traffic draining on the final allowed round from running out of
        rounds with messages still queued.
        """
        for used in range(max_rounds):
            if not self._pending_traffic():
                return QuietOutcome(used, True)
            if self.run_round().shuffle_requested:
                self.run_accusation_phase()
        return QuietOutcome(max_rounds, not self._pending_traffic())

    # ------------------------------------------------------------------
    # Accusation phase (§3.9)
    # ------------------------------------------------------------------

    def run_accusation_phase(self) -> list[TraceVerdict]:
        """Run an accusation shuffle, trace valid accusations, expel."""
        definition = self.definition
        with self.tracer.span("phase", name="blame"):
            purpose = b"dissent.accusation-shuffle|" + definition.group_id()
            privates, publics = self._session_keys(purpose)
            width = message_vector_width(
                definition.group, accusation_max_bytes(definition.group)
            )
            participants = self.submitters(None)
            result = run_message_shuffle(
                definition,
                privates,
                self._accusation_submissions(participants, publics, width),
                context=purpose,
                rng=self.rng,
            )
            verdicts: list[TraceVerdict] = []
            for message in result.messages:
                if not message:
                    continue
                try:
                    accusation = Accusation.from_bytes(definition.group, message)
                    verdicts.extend(self.trace(accusation))
                except (AccusationError, TraceInconclusive):
                    continue
            self.apply_verdicts(verdicts)
            self._accusation_outcome(participants, bool(verdicts))
        self.registry.counter("session.accusation_phases").inc()
        self.registry.counter("session.trace_verdicts").inc(len(verdicts))
        return verdicts

    def trace(self, accusation: Accusation, verifier: int = 0) -> list[TraceVerdict]:
        """Trace one accusation from an honest server's perspective."""
        definition = self.definition
        evidence, disclosures = self._trace_evidence(
            verifier, accusation.round_number, accusation.bit_index
        )
        return trace_accusation(
            definition.group,
            list(definition.client_keys),
            list(definition.server_keys),
            [PublicKey(definition.group, element) for element in self.slot_elements],
            definition.group_id(),
            evidence,
            accusation,
            disclosures,
            self._rebuttal,
        )

    def trace_witness(
        self, round_number: int, bit_index: int, verifier: int = 0
    ) -> list[TraceVerdict]:
        """Trace a witness bit that is already public (Verdict's hybrid
        replay opens the slot's true bytes, so no accusation vouches for it)."""
        definition = self.definition
        evidence, disclosures = self._trace_evidence(verifier, round_number, bit_index)
        return run_trace(
            definition.group,
            list(definition.client_keys),
            list(definition.server_keys),
            definition.group_id(),
            evidence,
            bit_index,
            disclosures,
            self._rebuttal,
        )

    def apply_verdicts(self, verdicts: Sequence[TraceVerdict]) -> None:
        """Expel each convicted client and record each convicted server."""
        for verdict in verdicts:
            culprit = verdict.culprit_index
            self._event("blame", culprit_kind=verdict.culprit_kind, culprit=culprit)
            if verdict.culprit_kind == "server":
                self.convicted_servers.add(culprit)
            elif self.expel(culprit):
                self._event("expulsion", client=culprit, reason="blame verdict")

    def expel(self, client_index: int) -> bool:
        """Expel a client from every server's roster, once.

        Several verdicts may name one disruptor (one per victim); only the
        first expels and counts.  Returns whether this call was that one.
        """
        if client_index in self.expelled:
            return False
        self.expelled.add(client_index)
        self._expel_member(client_index)
        self.registry.counter("session.expulsions").inc()
        return True
