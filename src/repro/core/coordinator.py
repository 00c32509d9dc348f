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

**The round sequence.**  A round is one sans-IO machine in the engine's
idiom: each event (round issued, the M inventory statuses, the M reports,
a barrier expired, an error, in process whether the rounds built past
it speculated right, and in verifiable mode the slot a proven round
opened) returns the effects a driver carries out.  It owns
the round counter and the window of rounds in flight, and every failure
abandons the round at every member, discards the younger rounds and files
it FAILED.  :meth:`~Coordinator.run_schedule` is the one round loop; a
driver only routes a round to its record (``_route_round``).

The coordinator also keeps the session's one delivery log.  A round's
output is a broadcast that every client applies, so the messages a
client has been delivered are a function of the filed records: each
filed completed record steps the coordinator's own slot schedule (in
verifiable mode it opens slot r mod N), and the messages it decodes are
filed with it, one entry of :attr:`Coordinator.history`
(:mod:`repro.core.history`).  No client keeps a copy.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

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
from repro.core.client import unframe_messages
from repro.core.config import GroupDefinition
from repro.core.engine import Effect, InventoryStatus, RoundDone
from repro.core.history import Delivered, History, Records
from repro.core.keyshuffle import (
    make_session_key,
    open_shuffle_submissions,
    run_key_shuffle,
    run_message_shuffle,
    shuffle_run_id,
    verify_session_keys,
)
from repro.core.rounds import QuietOutcome, RoundOutput, RoundRecord, RoundStatus
from repro.core.schedule import RoundLayout, Scheduler
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.shuffle import cascade_bases, message_vector_width
from repro.errors import (
    AccusationError,
    ProtocolError,
    TraceInconclusive,
    WireDecodeError,
)
from repro.obs import NULL_REGISTRY, NULL_TRACER

#: The reason a round abandoned at the §3.7 participation floor is filed with.
BELOW_FLOOR = "participation below floor"
#: The reason a verifiable round a blamed decryption share kept shut is filed with.
BLAMED_SHARE = "decryption share blamed"


# ---------------------------------------------------------------------------
# The round sequence's effects: what the coordinator asks a driver to do
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginRound(Effect):
    """Open ``round_number`` at every member; ``submitters`` send."""

    round_number: int
    submitters: tuple[int, ...]


@dataclass(frozen=True)
class CommitGo(Effect):
    """Every inventory passed the §3.7 floor: the servers may commit."""

    round_number: int


@dataclass(frozen=True)
class AbandonRound(Effect):
    """Give the round up at every server that still holds it."""

    round_number: int


@dataclass(frozen=True)
class ApplyRecord(Effect):
    """Hand a filed record's outcome to the clients; the round is over."""

    record: RoundRecord


@dataclass(frozen=True)
class DrainTo(Effect):
    """Discard the rounds issued after ``round_number`` and take the
    clients back to where lockstep stands before its outcome."""

    round_number: int


@dataclass
class _Issued:
    """A round issued and not yet filed: who submits, the slot layout it
    was built on (when an older round was in flight), and the
    participation its inventories published, once decided."""

    submitters: tuple[int, ...]
    layout: RoundLayout | None
    participation: int | None = None


class Coordinator:
    """One group's control plane and its state; a driver subclass answers it.

    ``server_keys`` are the servers' long-term keys in server order (the
    coordinator runs the mix cascades on their behalf); ``rng`` is the
    session's randomness, consumed only by the shuffles.  A driver answers
    the members' side of every exchange:

    ``_route_round(upcoming)``
        issue the online sets of ``upcoming`` not yet in flight, then
        route the oldest round to its record: carry out the effects of
        the round sequence and feed it the members' answers;
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

    :attr:`records` and :attr:`delivered` are read-only views of
    :attr:`history`, the append-only log of filed rounds.  Never saved,
    it holds the objects filed; a checkpoint carries each entry as the
    bytes the first save encoded, and a restored entry is decoded when
    it is read — only the last record at once, the one the round
    sequence reads.
    """

    def __init__(
        self,
        definition: GroupDefinition,
        server_keys: Sequence[PrivateKey],
        rng: random.Random,
    ) -> None:
        self.definition = definition
        self._server_keys = list(server_keys)
        # Every round's certificate is checked under the M server keys.
        self._pin = definition.group.pin(key.y for key in definition.server_keys)
        # The nine mutable fields from here to ``rng`` are the whole of the
        # coordinator's state: :func:`repro.persist.codec.encode_coordinator_state`
        # is the one snapshot of them, the same section in an in-process
        # and a networked checkpoint.
        self.round_number = 0
        #: The filed records and the messages they delivered
        #: (:attr:`records`, :attr:`delivered`).
        self.history = History()
        #: The slot schedule as every member steps it, fed the completed
        #: records; it decodes :attr:`delivered`.
        self.delivery_schedule = Scheduler(definition.num_clients, definition.policy)
        self.expelled: set[int] = set()
        self.convicted_servers: set[int] = set()
        #: Transferable equivocation proofs from the round reports; part of
        #: every checkpoint so a conviction survives a restart.
        self.equivocation_proofs: list[EquivocationProof] = []
        self.scheduled = False
        #: The key shuffle's output: slot s belongs to pseudonym key s.
        self.slot_elements: list[int] = []
        self.rng = rng
        #: The round sequence's window: rounds issued and not yet filed,
        #: oldest first.  Empty at every barrier, so no checkpoint holds it.
        self.inflight: dict[int, _Issued] = {}
        # Null sinks until a driver attaches live ones.
        self.registry = NULL_REGISTRY
        self.tracer = NULL_TRACER

    @property
    def records(self) -> Records:
        """Every filed :class:`RoundRecord`, in filing order (read-only)."""
        return self.history.records

    @property
    def delivered(self) -> Delivered:
        """Every delivered message as ``(round, slot, message)``, in
        delivery order: what each client applying the outputs observes
        (read-only)."""
        return self.history.delivered

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
        # The mix keys' tables serve this shuffle only: released at its
        # end, they are the first a later pin evicts.
        with self.definition.group.pin(cascade_bases(publics)):
            # Clients sign their onion-encrypted submissions (bound to this
            # run's ephemeral mix keys, so they cannot be replayed into a
            # later session); one batched multi-exponentiation
            # authenticates the whole set before the cascade spends any
            # mixing work on it.
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
        self, r: int, participation: int, reason: str = BELOW_FLOOR
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
                # corrupting the rest of the slot (§3.9).  In hybrid mode a
                # corrupted slot's field is noise: blame is the replay.
                shuffle_requested=self.definition.policy.dcnet_mode == "xor"
                and any(done.shuffle_requested for done in reports),
                certificate=certificate,
            )
        )

    def _file(self, record: RoundRecord) -> RoundRecord:
        rows = []
        if record.completed:
            r, cleartext = record.round_number, record.output.cleartext
            if self.definition.policy.dcnet_mode == "verifiable":
                # A verifiable round opens slot r mod N to the message sent.
                if cleartext:
                    rows.append((r, r % self.definition.num_clients, cleartext))
            else:
                for content in self.delivery_schedule.advance(cleartext):
                    if content.payload is not None:
                        rows.extend(
                            (r, content.slot_index, message)
                            for message in unframe_messages(content.payload)
                        )
        self.history.append(record, rows)
        outcome = "completed" if record.completed else "failed"
        self.registry.counter(f"session.rounds_{outcome}").inc()
        return record

    def delivered_messages(self, client_index: int = 0) -> list[tuple[int, int, bytes]]:
        """(round, slot, message) triples as observed by one client.

        Every client observes the same log, so this is :attr:`delivered`
        for any valid index — answered here, even for a client that is
        offline or dark.
        """
        self.definition.client_name(client_index)  # validates the index
        return list(self.delivered)

    # ------------------------------------------------------------------
    # The round sequence: one event in, the effects out
    # ------------------------------------------------------------------

    def issue_round(self, online: set[int] | None) -> list[Effect]:
        """Take the next round number for a round ``online`` submit to."""
        r = self.round_number
        self.round_number += 1
        submitters = tuple(self.submitters(online))
        layout = self.delivery_schedule.current_layout() if self.inflight else None
        self.inflight[r] = _Issued(submitters, layout)
        return [BeginRound(r, submitters)]

    def statuses_received(
        self, r: int, statuses: Sequence[InventoryStatus]
    ) -> list[Effect]:
        """The M inventory statuses of round ``r``: commit, or abandon at
        the §3.7 floor publishing the fresh count."""
        participation, go = self.inventory_decision(statuses)
        self.inflight[r].participation = participation
        if go:
            return [CommitGo(r)]
        return self._give_up(r, participation, BELOW_FLOOR)

    def dones_received(self, r: int, dones: Mapping[int, RoundDone]) -> list[Effect]:
        """The M servers' reports of round ``r``: file its certified record."""
        record = self.certified_round(r, dones)
        del self.inflight[r]
        return [ApplyRecord(record)]

    def round_opened(
        self, r: int, participation: int, output: RoundOutput | None
    ) -> list[Effect]:
        """Verifiable round ``r`` opened its slot with ``participation``
        proven submissions: file its signed ``output``, or the round FAILED
        when a blamed share kept the slot shut (``output`` None) or, as an
        XOR round's inventories decide, below the §3.7 floor of ``alpha``
        times the count the previous round published."""
        if output is None:
            return self._give_up(r, participation, BLAMED_SHARE)
        alpha, records = self.definition.policy.alpha, self.records
        if records and participation < alpha * records[-1].participation:
            return self._give_up(r, participation, BELOW_FLOOR)
        del self.inflight[r]
        record = RoundRecord(r, RoundStatus.COMPLETED, participation, output)
        return [ApplyRecord(self._file(record))]

    def barrier_expired(self, r: int, live: int, reason: str) -> list[Effect]:
        """A member stayed dark through the inventory barrier: abandon
        rather than hang, publishing how many clients are ``live``."""
        self.registry.counter("session.rounds_abandoned").inc()
        return self._give_up(r, live, reason)

    def round_raised(self, error: Exception) -> list[Effect]:
        """Routing the oldest round in flight raised: give it up with the
        count its inventories decided (else its submitters'); the driver
        re-raises ``error``."""
        if not self.inflight:
            return []
        r, issued = next(iter(self.inflight.items()))
        participation = issued.participation
        if participation is None:
            participation = len(issued.submitters)
        return self._give_up(r, participation, f"{type(error).__name__}: {error}")

    def speculation_checked(self, r: int, held: bool) -> list[Effect]:
        """In process, with rounds built past the filed round ``r``: they
        assumed its members' side (``held``: own slots intact, nothing
        replayed, no §3.7 ``min_participation`` side flipped), no shuffle
        request and the same slot layout."""
        younger = next(iter(self.inflight.values()))
        if (
            held
            and not self.records[-1].shuffle_requested
            and younger.layout == self.delivery_schedule.current_layout()
        ):
            return []
        return self._discard_after(r)

    def _give_up(self, r: int, participation: int, reason: str) -> list[Effect]:
        record = self.failed_round(r, participation, reason)
        del self.inflight[r]
        # The rounds built past a failed round assumed it completes.
        return [AbandonRound(r), *self._discard_after(r), ApplyRecord(record)]

    def _discard_after(self, r: int) -> list[Effect]:
        if not self.inflight:
            return []
        self.registry.counter("pipeline.drains").inc()
        self.registry.counter("pipeline.rounds_discarded").inc(len(self.inflight))
        self.inflight.clear()
        self.round_number = r + 1
        return [DrainTo(r)]

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------

    def run_round(self, online: set[int] | None = None) -> RoundRecord:
        """Run one round; ``online`` clients submit (None: all), and the
        offline ones still receive the outcome.  A round that requests an
        accusation shuffle returns before it: the caller runs
        :meth:`run_accusation_phase`."""
        return next(self._rounds([online], 1))

    def run_rounds(
        self, count: int, online: set[int] | None = None, window: int = 1
    ) -> list[RoundRecord]:
        """Run ``count`` rounds: :meth:`run_schedule` with one online set."""
        return self.run_schedule([online] * count, window)

    def run_schedule(
        self, online_sets: Sequence[set[int] | None], window: int = 1
    ) -> list[RoundRecord]:
        """Run one round per planned online set, up to ``window`` in flight.

        Every window gives the records, certificates and client state
        lockstep (``window=1``) gives.  The plan is known ahead of time
        (its length bounds the run), so a client going offline at round
        ``r+2`` is already excluded when ``r+2`` is built early.  The
        accusation shuffle runs right after the round that requests it,
        with no younger round in flight.
        """
        records = []
        for record in self._rounds(online_sets, window):
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
            self.run_schedule([None])
        return QuietOutcome(max_rounds, not self._pending_traffic())

    def _rounds(self, online_sets, window: int):
        if window < 1:
            raise ProtocolError("the round window must be at least 1")
        if not self.scheduled:
            raise ProtocolError("setup() must run before rounds")
        plan = list(online_sets)
        for done in range(len(plan)):
            yield self._route_round(plan[done : done + window])

    # ------------------------------------------------------------------
    # Accusation phase (§3.9)
    # ------------------------------------------------------------------

    def run_accusation_phase(self) -> list[TraceVerdict]:
        """Run an accusation shuffle, trace valid accusations, expel."""
        definition = self.definition
        if definition.policy.dcnet_mode != "xor":
            raise ProtocolError(
                "hybrid mode handles disruption by verifiable replay and "
                "verifiable mode by in-round proofs; "
                "the accusation shuffle should never be invoked"
            )
        with self.tracer.span("phase", name="blame"):
            purpose = b"dissent.accusation-shuffle|" + definition.group_id()
            privates, publics = self._session_keys(purpose)
            width = message_vector_width(
                definition.group, accusation_max_bytes(definition.group)
            )
            participants = self.submitters(None)
            with definition.group.pin(cascade_bases(publics)):
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
                except (WireDecodeError, AccusationError, TraceInconclusive):
                    continue
            self.apply_verdicts(verdicts)
            self._accusation_outcome(participants, bool(verdicts))
        self.registry.counter("session.accusation_phases").inc()
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
