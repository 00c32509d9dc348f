"""Pipelined round driver: W rounds in flight, outputs bit-identical.

The lockstep driver (:meth:`repro.core.session.DissentSession.run_round`)
serializes every phase, so the round period is the *sum* of submit →
inventory → commit → reveal → certify → output latencies plus the N*M pad
derivations done inline.  This module schedules the same per-server
:class:`~repro.core.engine.RoundEngine` machines differently — it splits a
round at the submit boundary and keeps a configurable window of W rounds
in flight end to end:

* clients build and submit rounds ``r+1 .. r+W-1`` while round ``r`` is
  still in its commit/reveal exchanges (servers hold one
  ``_RoundState`` per in-flight round and batch-verify future rounds'
  envelopes on arrival);
* a shared :class:`~repro.crypto.prng.PadPrefetcher` derives each round's
  pair pads at issue time, so ``produce_ciphertext`` and
  ``compute_ciphertext`` do zero SHAKE work on the critical path;
* a virtual pipeline clock models the overlap: with homogeneous phases
  the steady-state period collapses from the sum of the phase latencies
  to their max.

**Speculation and the drain barrier.**  Round ``r+1``'s client cleartexts
depend on round ``r``'s output in exactly four ways: the slot layout may
evolve, the client's own slot may have been disrupted (retransmit), the
published participation count may cross a §3.7 ``min_participation``
threshold, and a shuffle request forces an accusation phase.  The engine
therefore *speculates* — layout unchanged, own slot delivered, threshold
side unchanged, no shuffle — and validates every assumption when the
round actually completes (rounds complete strictly in order, each one
through the lockstep driver's own ``complete_round``, so certificates,
view changes and convictions are lockstep's too).  On any
violation it **drains to a barrier**: all younger in-flight rounds are
discarded, every client is rolled back to its pre-build snapshot (RNG
state included), the outcome is applied exactly as the lockstep engine
would, and the pipeline refills.  Client randomness is consumed only by
round builds and signatures use deterministic nonces, so a replayed build
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
from repro.crypto.prng import PadPrefetcher
from repro.errors import ProtocolError


@dataclass(frozen=True)
class PhaseLatency:
    """Modeled per-phase network/turnaround latencies (seconds).

    The driver's real work is in-process and sequential; these constants
    feed the virtual pipeline clock that accounts for the overlap a
    deployment would get (``virtual_elapsed``).  All-zero latencies (the
    default) reduce the clock to zero and leave only wall-clock effects.
    """

    submit: float = 0.0
    inventory: float = 0.0
    commit: float = 0.0
    reveal: float = 0.0
    certify: float = 0.0
    output: float = 0.0

    @classmethod
    def uniform(cls, seconds: float) -> "PhaseLatency":
        return cls(*([seconds] * 6))

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.submit,
            self.inventory,
            self.commit,
            self.reveal,
            self.certify,
            self.output,
        )

    @property
    def total(self) -> float:
        return sum(self.as_tuple())


@dataclass
class PipelineCounters:
    """Work and drain accounting for one pipelined run."""

    rounds_completed: int = 0
    rounds_failed: int = 0
    drains: int = 0
    speculative_rounds_discarded: int = 0


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
    #: server digests one round's exchanges at a time, oldest first, so
    #: they are routed only when this round completes.
    pending: list = field(default_factory=list)
    #: Virtual end time of this round's submit phase.
    submit_end: float = 0.0


class PipelinedSession:
    """Drives a :class:`DissentSession` with up to ``window`` rounds in flight.

    Records — certificates included — equal the lockstep driver's.

    Args:
        session: a scheduled (or about-to-be-scheduled) core XOR session.
            Subclasses that override ``run_round`` (hybrid/verdict modes
            hook per-round work there) are rejected — their hooks would be
            bypassed.
        window: W, the maximum rounds in flight.  ``window=1`` degrades to
            lockstep behaviour exactly (and is bit-identical like every
            other W).
        latency: phase latencies for the virtual pipeline clock.
        prefetch: attach a shared :class:`PadPrefetcher` to every node.
            In process, both endpoints of a pair derive identical pads, so
            the shared cache also halves total pad work — a deployment
            runs one prefetcher per machine instead.
    """

    def __init__(
        self,
        session: DissentSession,
        window: int = 4,
        latency: PhaseLatency | None = None,
        prefetch: bool = True,
    ) -> None:
        if type(session).run_round is not DissentSession.run_round:
            raise ProtocolError(
                "the pipelined engine drives the core XOR round path; "
                f"{type(session).__name__} overrides run_round, whose "
                "per-round hooks a pipeline would silently bypass"
            )
        if window < 1:
            raise ProtocolError("pipeline window must be at least 1")
        self.session = session
        self.window = window
        self.latency = latency or PhaseLatency()
        self.counters = PipelineCounters()
        # Telemetry rides on the session's registry/tracer (null sinks when
        # the session has telemetry disabled).
        self.registry = session.registry
        self.tracer = session.tracer
        self.registry.gauge("pipeline.window").set_max(window)
        self.prefetcher: PadPrefetcher | None = None
        if prefetch:
            pairs = session.definition.num_clients * session.definition.num_servers
            # Share the session registry when live so pad stats land in the
            # merged view; the prefetcher falls back to a private registry
            # otherwise (its hit/miss counts must work regardless).
            self.prefetcher = PadPrefetcher(
                window=window,
                max_entries=max(4096, 2 * window * pairs),
                registry=session.registry if session.registry.enabled else None,
            )
        for node in (*session.clients, *session.servers):
            node.prefetcher = self.prefetcher
        for server in session.servers:
            server.max_rounds_in_flight = window
        #: Outcomes applied to clients, in round order, for drain replay:
        #: ("output", RoundOutput) or ("failure", (round, participation)).
        self._applied: list[tuple[str, object]] = []
        self._applied_offset = 0
        # Virtual pipeline clock.
        self.virtual_elapsed = 0.0
        self._barrier = 0.0
        self._prev_submit_end = 0.0
        self._last_phase_ends = [0.0] * 6
        self._completions: deque[float] = deque()

    def detach(self) -> None:
        """Restore the session's nodes to lockstep configuration."""
        for node in (*self.session.clients, *self.session.servers):
            node.prefetcher = None
        for server in self.session.servers:
            server.max_rounds_in_flight = 1
        if self.prefetcher is not None:
            self.prefetcher.clear()

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
            # complete_round filed the record in session.records and counted it.
            records.append(record)
            if record.completed:
                self.counters.rounds_completed += 1
            else:
                self.counters.rounds_failed += 1
            if record.shuffle_requested:
                # Same position as the lockstep driver: the accusation
                # shuffle runs right after the requesting round (with the
                # pipeline already drained to the barrier).
                session.run_accusation_phase()
            self._prune_applied(inflight)
            if self.prefetcher is not None:
                self.prefetcher.discard_before(record.round_number + 1)
        return records

    # ------------------------------------------------------------------
    # Issue: speculative build + submission for one future round
    # ------------------------------------------------------------------

    def _issue(self, round_number: int, online: set[int] | None) -> _InFlight:
        session = self.session
        submitters = session.submitters(online)
        layout = session.servers[0].scheduler.current_layout()
        with self.tracer.span("phase", name="build", round=round_number):
            if self.prefetcher is not None:
                # Ahead-of-need derivation: this runs while older rounds are
                # still mid-exchange, so the produce/compute calls below (and
                # the servers' later compute phases) are pure cache hits.
                secrets = {
                    secret
                    for i in submitters
                    for secret in session.clients[i].secrets
                }
                self.prefetcher.prefetch(
                    secrets, round_number, layout.total_bytes, rounds=1
                )
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
        # Virtual clock: the submit lane serializes round issues, gated by
        # the window (round r cannot enter submission before round r-W
        # fully completed) and any drain barrier.
        gate = self._barrier
        if len(self._completions) >= self.window:
            gate = max(gate, self._completions[-self.window])
        start = max(self._prev_submit_end, gate)
        submit_end = start + self.latency.submit
        self._prev_submit_end = submit_end
        return _InFlight(
            round_number=round_number,
            submitters=submitters,
            layout=layout,
            snapshots=snapshots,
            applied_at_snapshot=applied_at,
            sent_records=sent_records,
            pending=pending,
            submit_end=submit_end,
        )

    # ------------------------------------------------------------------
    # Completion: server phases for the oldest in-flight round
    # ------------------------------------------------------------------

    def _complete(self, entry: _InFlight) -> RoundRecord:
        r = entry.round_number
        with self.tracer.span("round", round=r) as round_span:
            record = self.session.complete_round(r, entry.pending, round_span)
        self._charge(entry, failed=not record.completed)
        return record

    def _charge(self, entry: _InFlight, failed: bool) -> None:
        """Advance the virtual pipeline clock through this round's phases."""
        lat = self.latency
        durations = (
            [lat.inventory]
            if failed
            else [lat.inventory, lat.commit, lat.reveal, lat.certify, lat.output]
        )
        ends = [entry.submit_end]
        for k, duration in enumerate(durations, start=1):
            start = max(ends[-1], self._last_phase_ends[k])
            ends.append(start + duration)
        self._last_phase_ends = ends + [ends[-1]] * (6 - len(ends))
        self._completions.append(ends[-1])
        while len(self._completions) > self.window:
            self._completions.popleft()
        self.virtual_elapsed = ends[-1]

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
        self.counters.drains += 1
        self.counters.speculative_rounds_discarded += len(inflight)
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
        # Virtual barrier: every lane restarts after this round's end.
        self._barrier = self.virtual_elapsed
        self._prev_submit_end = self.virtual_elapsed
        self._last_phase_ends = [self.virtual_elapsed] * 6
        self._completions.clear()

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
