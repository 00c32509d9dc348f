"""Pipelined round driver: W rounds in flight, outputs bit-identical.

The lockstep driver (:meth:`repro.core.session.DissentSession.run_round`)
serializes every phase, so the round period is the *sum* of submit →
inventory → commit → reveal → certify → output latencies.  This module
schedules the same per-server :class:`~repro.core.engine.RoundEngine`
machines differently — it splits a round at the submit boundary and keeps
a configurable window of W rounds in flight end to end: clients build and
submit rounds ``r+1 .. r+W-1`` while round ``r`` is still in its
commit/reveal exchanges (each engine holds one record per in-flight round
and batch-verifies a future round's envelopes on arrival).  The window is
this driver's alone: no engine or server knows W.  Every node
still derives its own pair pads when it needs them, exactly as lockstep
does.  In process the phases run one after another either way; the
overlap a deployment would get is modelled by
:meth:`repro.sim.costmodel.CostModel.pipeline_period`.

**Speculation and the drain barrier.**  Round ``r+1``'s client cleartexts
depend on round ``r``'s output in exactly five ways: the slot layout may
evolve, the client's own slot may have been disrupted (retransmit), the
published participation count may cross a §3.7 ``min_participation``
threshold, a shuffle request forces an accusation phase, and in hybrid
mode a corrupted slot forces a verifiable replay
(:meth:`~repro.core.session.DissentSession.after_output`).  The engine
therefore *speculates* — layout unchanged, own slot delivered, threshold
side unchanged, no shuffle, no replay — and validates every assumption
when the round actually completes (rounds complete strictly in order,
each one through the lockstep driver's own ``complete_round``, so
certificates, view changes and convictions are lockstep's too).  On any
violation it **drains to a barrier**: all younger in-flight rounds are
discarded, every client is rolled back to its pre-build snapshot (RNG
state included), the outcome is applied exactly as the lockstep engine
would, and the pipeline refills.  Client randomness is consumed only by
round builds and by hybrid replays, which run at a barrier, and
signatures use deterministic nonces, so a replayed build
emits byte-identical envelopes — which is what makes certified outputs,
round records and certificates, and §3.7/§3.9 failure, blame, and
expulsion semantics
*bit-identical* to lockstep for every window size (property-tested in
``tests/test_pipeline.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.client import _SentRecord
from repro.core.rounds import RoundRecord
from repro.core.schedule import RoundLayout
from repro.core.session import DissentSession
from repro.errors import ProtocolError


@dataclass
class _InFlight:
    """One speculatively issued round awaiting completion."""

    round_number: int
    submitters: list[int]
    layout: RoundLayout
    #: Per-client state snapshots taken *before* this round's builds.
    snapshots: list[dict]
    #: How many outcomes had been applied to clients at snapshot time.
    applied_at_snapshot: int
    #: Speculatively confirmed sent records, validated at completion.
    sent_records: dict[int, _SentRecord] = field(default_factory=dict)
    #: Engine effects held at the submit boundary (the inventories): a
    #: round's §3.7 floor compares with the participation the round before
    #: it published, so they are routed only when this round completes.
    pending: list = field(default_factory=list)


class PipelinedSession:
    """Drives a :class:`DissentSession` with up to ``window`` rounds in flight.

    Records — certificates included — equal the lockstep driver's.

    Args:
        session: a scheduled (or about-to-be-scheduled)
            :class:`DissentSession`, in whichever mode its policy's
            ``dcnet_mode`` names (``"xor"`` or ``"hybrid"``); its
            :meth:`~DissentSession.after_output` step runs after each
            round, as in lockstep.  A ``VerdictSession`` is rejected.
        window: W, the maximum rounds in flight.  ``window=1`` degrades to
            lockstep behaviour exactly (and is bit-identical like every
            other W).

    Drains, discarded speculative rounds and completed/failed rounds are
    counted on the session's registry (``pipeline.drains``,
    ``pipeline.rounds_discarded``, ``session.rounds_{completed,failed}``).
    """

    def __init__(self, session: DissentSession, window: int = 4) -> None:
        if not isinstance(session, DissentSession):
            raise ProtocolError(
                "the pipelined engine drives the in-process DC-net round; "
                f"{type(session).__name__} is not a DissentSession"
            )
        if window < 1:
            raise ProtocolError("pipeline window must be at least 1")
        self.session = session
        self.window = window
        # Telemetry rides on the session's registry/tracer (null sinks when
        # the session has telemetry disabled).
        self.registry = session.registry
        self.tracer = session.tracer
        self.registry.gauge("pipeline.window").set_max(window)
        #: Outcomes applied to clients, in round order, for drain replay:
        #: ("output", RoundOutput) or ("failure", (round, participation)).
        self._applied: list[tuple[str, object]] = []
        self._applied_offset = 0

    # ------------------------------------------------------------------
    # Public driving surface
    # ------------------------------------------------------------------

    def run_rounds(
        self, count: int, online: set[int] | None = None
    ) -> list[RoundRecord]:
        """Pipelined equivalent of :meth:`DissentSession.run_rounds`."""
        return self.run_schedule([online] * count)

    def run_schedule(
        self, online_sets: Sequence[set[int] | None]
    ) -> list[RoundRecord]:
        """Run one round per planned online set, keeping W in flight.

        The plan is known ahead of time (its length bounds the run), so a
        client going offline at round ``r+2`` is already excluded when the
        engine issues ``r+2`` early — mirroring a deployment where the
        submission window for a future round simply never hears from it.
        """
        session = self.session
        if not session.scheduled:
            raise ProtocolError("setup() must run before rounds")
        plan = list(online_sets)
        records: list[RoundRecord] = []
        inflight: deque[_InFlight] = deque()
        while len(records) < len(plan):
            while (
                len(inflight) < self.window
                and len(records) + len(inflight) < len(plan)
            ):
                online = plan[len(records) + len(inflight)]
                inflight.append(self._issue(session.round_number, online))
                session.round_number += 1
            self.registry.gauge("pipeline.inflight").set_max(len(inflight))
            entry = inflight.popleft()
            record = self._complete(entry)
            reason = self._validate(entry, record, inflight)
            if reason is None:
                with self.tracer.span(
                    "phase", name="output", round=record.round_number
                ):
                    for client in session.clients:
                        client.handle_output(record.output)
                self._applied.append(("output", record.output))
            else:
                self._drain(entry, record, inflight)
            # Lockstep's step after the output; a round it replays has
            # drained above, so the replay sees no speculative build.
            session.after_output(record)
            # complete_round filed the record in session.records and counted it.
            records.append(record)
            if record.shuffle_requested:
                # Same position as the lockstep driver: the accusation
                # shuffle runs right after the requesting round (with the
                # pipeline already drained to the barrier).
                session.run_accusation_phase()
            self._prune_applied(inflight)
        return records

    # ------------------------------------------------------------------
    # Issue: speculative build + submission for one future round
    # ------------------------------------------------------------------

    def _issue(self, round_number: int, online: set[int] | None) -> _InFlight:
        session = self.session
        submitters = session.submitters(online)
        layout = session.servers[0].scheduler.current_layout()
        with self.tracer.span("phase", name="build", round=round_number):
            snapshots = [client.snapshot_state() for client in session.clients]
            applied_at = self._applied_offset + len(self._applied)
            envelopes = {}
            sent_records: dict[int, _SentRecord] = {}
            for i in submitters:
                envelopes[i] = session.clients[i].produce_ciphertext(round_number)
                record = session.clients[i].speculate_delivery(round_number)
                if record is not None:
                    sent_records[i] = record
        with self.tracer.span("phase", name="submit", round=round_number):
            pending = session.submit(round_number, envelopes)
        return _InFlight(
            round_number=round_number,
            submitters=submitters,
            layout=layout,
            snapshots=snapshots,
            applied_at_snapshot=applied_at,
            sent_records=sent_records,
            pending=pending,
        )

    # ------------------------------------------------------------------
    # Completion: server phases for the oldest in-flight round
    # ------------------------------------------------------------------

    def _complete(self, entry: _InFlight) -> RoundRecord:
        r = entry.round_number
        with self.tracer.span("round", round=r) as round_span:
            return self.session.complete_round(r, entry.pending, round_span)

    # ------------------------------------------------------------------
    # Validation of the speculation + the drain barrier
    # ------------------------------------------------------------------

    def _validate(
        self,
        entry: _InFlight,
        record: RoundRecord,
        inflight: deque[_InFlight],
    ) -> str | None:
        """Why the pipeline must drain at this round, or None to continue."""
        session = self.session
        if not record.completed:
            # §3.7 hard timeout: lockstep re-queues the failed round's
            # traffic, which the speculative confirm already dropped.
            return "round failed at the participation floor"
        output = record.output
        for i, rec in entry.sent_records.items():
            start = rec.slot_bit_start // 8
            observed = output.cleartext[start : start + len(rec.slot_bytes)]
            if observed != rec.slot_bytes:
                return f"client {i}'s slot was disrupted"
        if session.replayed_slots(output, entry.layout):
            # Hybrid blame replays the round and may expel a member.
            return "a corrupted slot is replayed"
        if record.shuffle_requested:
            # The accusation shuffle (and any expulsion it produces) must
            # land before the next round, exactly as in lockstep.
            return "accusation shuffle requested"
        if inflight:
            for client in session.clients:
                if client.min_participation <= 0:
                    continue
                before = client.last_participation
                was_passive = (
                    before is not None and before < client.min_participation
                )
                now_passive = output.participation < client.min_participation
                if was_passive != now_passive:
                    return "participation crossed a min_participation threshold"
            post_layout = session.servers[0].scheduler.current_layout()
            if post_layout != inflight[0].layout:
                return "slot schedule changed"
        return None

    def _drain(
        self,
        entry: _InFlight,
        record: RoundRecord,
        inflight: deque[_InFlight],
    ) -> None:
        """Discard speculative rounds and re-apply round r the lockstep way."""
        session = self.session
        self.registry.counter("pipeline.drains").inc()
        self.registry.counter("pipeline.rounds_discarded").inc(len(inflight))
        for stale in inflight:
            for engine in session.engines:
                engine.discard(stale.round_number)
        inflight.clear()
        session.round_number = entry.round_number + 1
        # Roll every client back to its pre-build checkpoint, replay the
        # outcomes that landed after that checkpoint, rebuild round r's
        # submissions (deterministic: same RNG state, deterministic
        # nonces), then apply the real outcome — the exact lockstep
        # sequence, so client state is bit-identical to never having
        # speculated at all.
        for client, snapshot in zip(session.clients, entry.snapshots):
            client.restore_state(snapshot)
        start = entry.applied_at_snapshot - self._applied_offset
        for kind, payload in self._applied[start:]:
            if kind == "output":
                for client in session.clients:
                    client.handle_output(payload)
            else:
                round_number, participation = payload
                for client in session.clients:
                    client.handle_round_failure(round_number, participation)
        for i in entry.submitters:
            session.clients[i].produce_ciphertext(entry.round_number)
        if record.completed:
            for client in session.clients:
                client.handle_output(record.output)
            self._applied.append(("output", record.output))
        else:
            for client in session.clients:
                client.handle_round_failure(
                    record.round_number, record.participation
                )
            self._applied.append(
                ("failure", (record.round_number, record.participation))
            )

    def _prune_applied(self, inflight: deque[_InFlight]) -> None:
        """Drop replay entries no outstanding snapshot can still need."""
        if inflight:
            needed = min(e.applied_at_snapshot for e in inflight)
        else:
            needed = self._applied_offset + len(self._applied)
        drop = needed - self._applied_offset
        if drop > 0:
            del self._applied[:drop]
            self._applied_offset = needed
