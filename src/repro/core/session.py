"""In-process real-mode session: full protocol with actual cryptography.

:class:`DissentSession` is the in-process way of answering the
:class:`~repro.core.coordinator.Coordinator`: set-up, the per-round
go/abandon and certification decisions, blame and the session state are
the coordinator's, and this class supplies what they ask of the members
with method calls on the client and server objects it holds.  It also
plays the network for the round itself: each server runs the same
:class:`~repro.core.engine.RoundEngine` the networked daemons run, and the
session routes the engines' signed envelopes between them, exactly as
Algorithms 1 and 2 prescribe.  Every signature, commitment, PRNG stream,
shuffle proof, and trace step executes for real — this is the object the
integration tests, property tests, and examples drive.

**The round loop.**  :meth:`DissentSession.run_schedule` is the one
in-process round loop: build, submit, route the engines to a record,
apply the outcome, :meth:`~DissentSession.after_output`, and the
accusation shuffle after a round that asks for it.  ``window=W`` keeps up
to W rounds in flight: clients build and submit rounds ``r+1 .. r+W-1``
while round ``r`` is still in its server exchanges (each engine holds one
record per begun round).  Round ``r+1``'s cleartexts depend on round
``r``'s outcome in five ways — the slot layout, the client's own slot
arriving intact, the §3.7 ``min_participation`` side, a shuffle request,
and in hybrid mode a replayed slot — so building ``r+1`` early assumes
all five unchanged: only then, when a younger round is built while ``r``
is in flight, are the clients snapshotted and ``r``'s own-slot deliveries
confirmed ahead of its output.  Rounds complete strictly in order, each
through :meth:`~DissentSession.complete_round`; if ``r``'s outcome breaks
an assumption, the loop **drains to a barrier**: the younger rounds are
discarded, the clients restored and the outcome applied as lockstep
applies it, and the window refills.  Records, certificates, blame and
client state are bit-identical at every W (``tests/test_pipeline.py``);
at ``window=1`` nothing is speculated and the loop is lockstep.

Timing is intentionally absent here; the discrete-event simulator in
:mod:`repro.sim` models latency, bandwidth, and churn for the paper's
performance figures.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from repro.core.client import DissentClient, _SentRecord
from repro.core.config import GroupDefinition, Policy
from repro.core.coordinator import Coordinator
from repro.core.engine import (
    ArmTimer,
    Broadcast,
    Fault,
    InventoryStatus,
    PhaseBoundary,
    RoundDone,
    RoundEngine,
)
from repro.core.rounds import RoundOutput, RoundRecord
from repro.core.schedule import RoundLayout, decode_slot
from repro.core.server import DissentServer
from repro.crypto.keys import PrivateKey
from repro.errors import AccusationError, ConfigError, ProtocolError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    round_trace_id,
    telemetry_env_enabled,
)


@dataclass
class SessionBuildResult:
    """Key material generated by :func:`build_session` (handy for tests)."""

    definition: GroupDefinition
    server_keys: list[PrivateKey]
    client_keys: list[PrivateKey]


def build_keys(
    group_name: str | None,
    num_servers: int,
    num_clients: int,
    policy: Policy | None = None,
    rng: random.Random | None = None,
) -> SessionBuildResult:
    """Generate a complete group: definition plus all private keys.

    ``group_name=None`` defers to the policy's ``group_backend`` and the
    ``DISSENT_GROUP_BACKEND`` environment variable (in that order) — the
    hook CI's backend matrix uses to steer every builder at once.

    A new group starts with no signature verified and no schedule step
    taken: the process-wide memos of accepted signatures
    (:mod:`repro.crypto.schnorr`) and of schedule steps
    (:mod:`repro.core.schedule`) are emptied here.  A second group built
    from the same seed has the same keys and, signing being deterministic,
    the same signatures and round outputs; it pays for its own set-up and
    rounds instead of finding the first group's answers.
    """
    from repro.core import schedule
    from repro.core.config import make_group_definition, _GROUP_NAMES
    from repro.crypto import schnorr
    from repro.crypto.groups import resolve_group_name

    schnorr.forget_accepted()
    schedule.forget_steps()
    group_name = resolve_group_name(group_name, policy)
    group = _GROUP_NAMES[group_name]()
    server_keys = [PrivateKey.generate(group, rng) for _ in range(num_servers)]
    client_keys = [PrivateKey.generate(group, rng) for _ in range(num_clients)]
    definition = make_group_definition(
        group_name,
        [key.public for key in server_keys],
        [key.public for key in client_keys],
        policy,
    )
    return SessionBuildResult(definition, server_keys, client_keys)


def build_session(
    group_name: str | None = None,
    num_servers: int = 3,
    num_clients: int = 8,
    policy: Policy | None = None,
    seed: int | None = None,
):
    """Build a session that runs the policy's ``dcnet_mode``.

    ``"xor"`` and ``"hybrid"`` are both a :class:`DissentSession`, which
    reads the mode off the policy (hybrid blames a corrupted slot by
    verifiable replay, :mod:`repro.verdict.hybrid`); ``"verifiable"`` is a
    :class:`repro.verdict.session.VerdictSession` (proactive per-round
    proofs — a different, slot-per-round surface).
    """
    from repro.crypto.groups import resolve_group_name

    policy = policy or Policy()
    group_name = resolve_group_name(group_name, policy)
    if policy.dcnet_mode == "verifiable":
        from repro.verdict.session import VerdictSession

        return VerdictSession.build(
            num_servers=num_servers,
            num_clients=num_clients,
            group_name=group_name,
            slot_payload=policy.initial_slot_payload,
            seed=seed,
        )
    return DissentSession.build(group_name, num_servers, num_clients, policy, seed)


@dataclass
class _InFlight:
    """One built and submitted round that has not completed yet."""

    round_number: int
    submitters: list[int]
    #: The round's trace span, open until its outcome reached the clients.
    span: object
    #: Engine effects held at the submit boundary (the inventories): a
    #: round's §3.7 floor compares with the participation the round before
    #: it published, so they are routed only when this round completes.
    pending: list
    #: The slot layout it was built on, when an older round was in flight.
    layout: RoundLayout | None = None
    #: Set once a younger round is built while this one is in flight:
    #: every client's state before :meth:`DissentSession._speculate`, the
    #: records applied since, and the sent records confirmed ahead of time.
    snapshots: list[dict] | None = None
    applied: list[RoundRecord] = field(default_factory=list)
    confirmed: dict[int, _SentRecord] = field(default_factory=dict)


class DissentSession(Coordinator):
    """Drives one Dissent group end to end, in process.

    Runs the policy's ``dcnet_mode``, ``"xor"`` or ``"hybrid"``.

    Args:
        definition: the static group definition.
        servers: server node objects (honest or adversarial subclasses).
        clients: client node objects, in definition order.
        rng: deterministic randomness for reproducible runs.
    """

    def __init__(
        self,
        definition: GroupDefinition,
        servers: Sequence[DissentServer],
        clients: Sequence[DissentClient],
        rng: random.Random | None = None,
    ) -> None:
        if definition.policy.dcnet_mode == "verifiable":
            raise ConfigError("a 'verifiable' group runs as a VerdictSession")
        if len(servers) != definition.num_servers:
            raise ProtocolError("server list does not match the definition")
        if len(clients) != definition.num_clients:
            raise ProtocolError("client list does not match the definition")
        super().__init__(
            definition,
            [server.key for server in servers],
            rng if rng is not None else random.Random(),
        )
        self.servers = list(servers)
        self.clients = list(clients)
        #: One sans-IO round machine per server; this session only routes
        #: their effects (see :meth:`complete_round`).
        self.engines = [RoundEngine(server) for server in self.servers]
        #: Hybrid mode's verifiable replays, in order (always empty in XOR).
        self.blames: list = []

    def enable_telemetry(self, clock=None) -> MetricsRegistry:
        """Attach a live metrics registry and span tracer to this session.

        ``clock`` injects a monotonic time source for the tracer (a fake
        clock keeps traced runs deterministic); recording never touches
        protocol bytes, so enabling telemetry cannot change outputs.
        """
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry, clock=clock)
        for engine in self.engines:
            engine.registry = self.registry
        return self.registry

    def metrics(self) -> dict:
        """Snapshot of everything recorded (empty when disabled)."""
        return self.registry.snapshot()

    def snapshot_state(self) -> bytes:
        """All mutable session state at a round barrier: the ``session``
        payload :func:`repro.persist.save_session` writes.  Long-lived
        identity (keys, definition) is excluded — a restore re-attaches
        state to freshly-built nodes holding the same keys."""
        from repro.persist.codec import encode_session_state

        return encode_session_state(self)

    def restore_state(self, snapshot: bytes) -> None:
        """Adopt a payload taken by :meth:`snapshot_state`."""
        from repro.persist.codec import decode_session_state

        decode_session_state(self, snapshot)
        for engine in self.engines:
            # Snapshots are cut at round barriers; submit() re-seeds the
            # rotation from the restored proofs.
            engine.rounds.clear()
            engine.convicted.clear()
        for index in self.expelled:
            self._expel_member(index)

    @classmethod
    def build(
        cls,
        group_name: str | None = None,
        num_servers: int = 3,
        num_clients: int = 8,
        policy: Policy | None = None,
        seed: int | None = None,
        client_factory=DissentClient,
        server_factory=DissentServer,
        telemetry: bool | None = None,
    ) -> "DissentSession":
        """Convenience constructor: fresh keys, honest nodes, seeded RNG.

        ``telemetry=True`` enables the metrics registry and tracer from the
        start; ``None`` defers to the ``DISSENT_TELEMETRY`` environment
        opt-in (how CI runs the whole suite instrumented).
        """
        rng = random.Random(seed) if seed is not None else random.Random()
        built = build_keys(group_name, num_servers, num_clients, policy, rng)
        servers = [
            server_factory(built.definition, j, key, random.Random(rng.getrandbits(64)))
            for j, key in enumerate(built.server_keys)
        ]
        clients = [
            client_factory(built.definition, i, key, random.Random(rng.getrandbits(64)))
            for i, key in enumerate(built.client_keys)
        ]
        session = cls(built.definition, servers, clients, rng)
        if telemetry or (telemetry is None and telemetry_env_enabled()):
            session.enable_telemetry()
        return session

    # ------------------------------------------------------------------
    # What the coordinator asks of the members: here, method calls
    # ------------------------------------------------------------------

    def _scheduling_submissions(self, purpose, publics):
        return [
            client.signed_scheduling_submission(publics, purpose)
            for client in self.clients
        ]

    def _learn_schedule(self, elements):
        for node in (*self.clients, *self.servers):
            node.learn_schedule(elements)

    def _accusation_submissions(self, participants, publics, width):
        return [
            self.clients[i].accusation_submission(publics, width)
            for i in participants
        ]

    def _accusation_outcome(self, participants, handled):
        for i in participants:
            self.clients[i].accusation_outcome(handled)

    def _trace_evidence(self, verifier, round_number, bit_index):
        archive = self.servers[verifier].archive.get(round_number)
        if archive is None:
            raise AccusationError(f"round {round_number} is no longer archived")
        return archive.to_evidence(), [
            server.trace_disclosure(round_number, bit_index)
            for server in self.servers
        ]

    def _rebuttal(self, client_index, round_number, bit_index, claimed):
        return self.clients[client_index].rebut(round_number, bit_index, dict(claimed))

    def _expel_member(self, client_index):
        for server in self.servers:
            server.expel_client(client_index)

    def _pending_traffic(self):
        return any(
            client.has_pending_traffic or client.pending_accusation
            for i, client in enumerate(self.clients)
            if i not in self.expelled
        )

    # ------------------------------------------------------------------
    # One DC-net round: a synchronous router over the M round engines
    # ------------------------------------------------------------------

    def run_round(self, online: set[int] | None = None) -> RoundRecord:
        """Execute one complete round: one turn of :meth:`run_schedule`.

        Args:
            online: client indices that submit this round (None = all).
                Offline clients still receive the certified output, as a
                reconnecting client would fetch it from its server.

        A round that requests an accusation shuffle returns before it;
        the caller runs :meth:`run_accusation_phase`.
        """
        (record,) = self._round_loop([online], window=1)
        return record

    def run_rounds(
        self, count: int, online: set[int] | None = None, window: int = 1
    ) -> list[RoundRecord]:
        """Run ``count`` rounds, up to ``window`` in flight; accusation
        shuffles fire automatically."""
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
        for record in self._round_loop(online_sets, window):
            records.append(record)
            if record.shuffle_requested:
                self.run_accusation_phase()
        return records

    def _round_loop(
        self, online_sets: Sequence[set[int] | None], window: int
    ) -> Iterator[RoundRecord]:
        """The one in-process round loop: yields each round's record once
        its outcome reached the clients, with no younger round in flight
        when the record asks for a barrier (failure, blame, replay)."""
        if window < 1:
            raise ProtocolError("the round window must be at least 1")
        if not self.scheduled:
            raise ProtocolError("setup() must run before rounds")
        plan = list(online_sets)
        done = 0
        inflight: collections.deque[_InFlight] = collections.deque()
        # Round spans of discarded builds, reused when the round is rebuilt.
        spans: dict = {}
        while done < len(plan):
            while len(inflight) < window and done + len(inflight) < len(plan):
                online = plan[done + len(inflight)]
                inflight.append(self._issue(online, inflight, spans))
            entry = inflight.popleft()
            with entry.span:
                record = self.complete_round(
                    entry.round_number, entry.pending, entry.span
                )
                if inflight and not self._speculation_holds(entry, record, inflight[0]):
                    self._drain(entry, inflight, spans)
                if record.completed:
                    with entry.span.child("phase", name="output"):
                        self._apply(record)
                else:
                    self._apply(record)
                for younger in inflight:
                    if younger.snapshots is not None:
                        younger.applied.append(record)
                self.after_output(record)
            done += 1
            yield record

    def _issue(
        self, online: set[int] | None, inflight: collections.deque, spans: dict
    ) -> _InFlight:
        """Build and submit the next round; the round still in flight
        before it is speculated on first."""
        r = self.round_number
        self.round_number += 1
        layout = None
        if inflight:
            self._speculate(inflight[-1])
            layout = self.servers[0].scheduler.current_layout()
        span = spans.pop(r, None) or self._round_span(r)
        submitters = self.submitters(online)
        with span.child("phase", name="build"):
            envelopes = {i: self.clients[i].produce_ciphertext(r) for i in submitters}
        with span.child("phase", name="submit"):
            pending = self.submit(r, envelopes)
        return _InFlight(r, submitters, span, pending, layout)

    def _round_span(self, r: int):
        # The same trace-id scheme the networked runner uses, so local and
        # distributed runs of one group/round land under one trace name.
        attrs = {"round": r, "node": "local"}
        if self.tracer.enabled:
            attrs["trace_id"] = round_trace_id(self.definition.group_id(), r)
        return self.tracer.span("round", **attrs)

    def _speculate(self, entry: _InFlight) -> None:
        """Assume round ``entry`` delivers every own slot intact, so the
        round built next does not resend its messages; keep what undoes it."""
        entry.snapshots = [client.snapshot_state() for client in self.clients]
        for i in entry.submitters:
            sent = self.clients[i].speculate_delivery(entry.round_number)
            if sent is not None:
                entry.confirmed[i] = sent

    def _speculation_holds(
        self, entry: _InFlight, record: RoundRecord, younger: _InFlight
    ) -> bool:
        """Whether the rounds built past ``entry`` assumed its outcome right.

        They assumed the round completes, every own slot arrives intact,
        no slot is replayed or shuffle requested, no client's §3.7
        ``min_participation`` side flips, and the slot layout stays.
        """
        if not record.completed:
            # Lockstep re-queues the failed round's traffic, which the
            # speculative confirmation dropped.
            return False
        output = record.output
        if not all(sent.arrived(output) for sent in entry.confirmed.values()):
            return False
        if self.replayed_slots(output) or record.shuffle_requested:
            # Blame may expel a member before the next round.
            return False
        for client in self.clients:
            if client.min_participation <= 0:
                continue
            before = client.last_participation
            was_passive = before is not None and before < client.min_participation
            if was_passive != (output.participation < client.min_participation):
                return False
        return self.servers[0].scheduler.current_layout() == younger.layout

    def _drain(self, entry: _InFlight, inflight: collections.deque, spans: dict) -> None:
        """Discard the younger rounds and take every client back to where
        lockstep stands before round ``entry``'s outcome: the snapshot
        taken before its speculation, plus the outcomes applied since.

        Client randomness is drawn only by builds and by replays, which
        run with nothing younger in flight, and signatures use
        deterministic nonces, so the rebuilt rounds are byte-identical
        to the lockstep ones.
        """
        self.registry.counter("pipeline.drains").inc()
        self.registry.counter("pipeline.rounds_discarded").inc(len(inflight))
        for stale in inflight:
            for engine in self.engines:
                engine.discard(stale.round_number)
            spans[stale.round_number] = stale.span
        inflight.clear()
        self.round_number = entry.round_number + 1
        for client, snapshot in zip(self.clients, entry.snapshots):
            client.restore_state(snapshot)
        for record in entry.applied:
            self._apply(record)

    def _apply(self, record: RoundRecord) -> None:
        """Hand a round's outcome to every client."""
        if record.completed:
            for client in self.clients:
                client.handle_output(record.output)
        else:
            # §3.7 hard timeout: publish the fresh count.
            for client in self.clients:
                client.handle_round_failure(record.round_number, record.participation)

    def replayed_slots(self, output: RoundOutput) -> list[int]:
        """The slots of a certified round that :meth:`after_output` blames.

        In hybrid mode, the open slots of the round's archived layout whose
        padding check fails: everyone decoding the output sees the
        corruption, so no accusation is needed to say so.  None in XOR
        mode, whose blame starts with a shuffle request in a later round
        (§3.9).  The round loop drains to a barrier at a round that has
        any, as blame may expel a member.
        """
        policy = self.definition.policy
        if policy.dcnet_mode != "hybrid":
            return []
        layout = self.servers[0].archive[output.round_number].layout
        return [
            slot
            for slot in range(layout.num_slots)
            if layout.is_open(slot)
            and decode_slot(layout, policy, slot, output.cleartext).is_corrupted
        ]

    def after_output(self, record: RoundRecord) -> None:
        """The step that runs once a round's outcome reached the clients.

        The round loop calls it at every window.  XOR mode
        has nothing to do here; hybrid mode replays each corrupted slot
        (:func:`repro.verdict.hybrid.replay_corrupted_slots`).
        """
        if self.definition.policy.dcnet_mode == "hybrid":
            from repro.verdict.hybrid import replay_corrupted_slots

            replay_corrupted_slots(self, record)

    def submit(self, r: int, envelopes: dict) -> list:
        """Open round ``r`` on every engine and hand each its clients' ciphertexts.

        ``envelopes`` maps each submitting client to its signed ciphertext;
        a server's last one in lets it batch-verify and take inventory.
        Returns the ``(server, effect)`` pairs :meth:`complete_round` routes.
        """
        # Engines convict from the proposals they see; a session restored
        # from a checkpoint re-seeds their rotation from the archived proofs.
        convicted = {proof.leader for proof in self.equivocation_proofs}
        pending = []
        for j, engine in enumerate(self.engines):
            engine.convicted |= convicted
            pending += [(j, e) for e in engine.begin_round(r, envelopes)]
        for i, envelope in envelopes.items():
            j = self.definition.upstream_server(i)
            pending += [(j, e) for e in self.engines[j].deliver(envelope)]
        return pending

    def complete_round(self, r: int, pending: list, round_span) -> RoundRecord:
        """Route effects between the engines until round ``r`` is decided.

        The session plays the network: a broadcast is delivered to every
        peer engine, the M inventory statuses are put to the coordinator's
        :meth:`inventory_decision` (commit-go, or abandon the round at the
        §3.7 floor), and the M ``RoundDone`` reports to its
        :meth:`certified_round`.  Delivery is FIFO,
        so phases complete in lockstep; when nothing is left to deliver
        and servers still wait, the lowest-indexed armed view timer
        expires — the only way time passes here.  Clients are not
        touched: the caller applies the outcome.
        """
        engines = self.engines
        num_servers = len(engines)
        queue = collections.deque(pending)
        statuses: dict[int, InventoryStatus] = {}
        dones: dict[int, RoundDone] = {}
        timers: dict[int, int] = {}
        passed: collections.Counter = collections.Counter()
        tracer = self.tracer
        mark = tracer.clock() if tracer.enabled else 0.0
        while len(dones) < num_servers:
            if not queue:
                if not timers:
                    raise ProtocolError(
                        f"round {r}: servers wait with nothing in flight"
                    )
                j = min(timers)
                effects = engines[j].view_timer_expired(r, timers.pop(j))
                queue.extend((j, effect) for effect in effects)
                continue
            j, effect = queue.popleft()
            match effect:
                case Broadcast(envelope):
                    for k, engine in enumerate(engines):
                        if k != j and r in engine.rounds:
                            queue.extend((k, e) for e in engine.deliver(envelope))
                case InventoryStatus():
                    statuses[j] = effect
                    if len(statuses) < num_servers:
                        continue
                    participation, go = self.inventory_decision(statuses.values())
                    if not go:
                        for engine in engines:
                            engine.abandon(r)
                        return self.failed_round(r, participation)
                    for k, engine in enumerate(engines):
                        queue.extend((k, e) for e in engine.commit_go(r))
                case ArmTimer(view=view):
                    timers[j] = view
                case PhaseBoundary(phase=phase) if phase != "submit":
                    # A phase ends for the session when its last server
                    # passes it (the caller times build and submit itself).
                    passed[phase] += 1
                    if passed[phase] == num_servers and tracer.enabled:
                        now = tracer.clock()
                        tracer.record(
                            "phase", mark, now, parent_id=round_span.span_id, name=phase
                        )
                        mark = now
                case RoundDone():
                    dones[j] = effect
                    timers.pop(j, None)
                case Fault(error=error):
                    raise error
        return self.certified_round(r, dones)

    # ------------------------------------------------------------------
    # Convenience for applications and tests
    # ------------------------------------------------------------------

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        self.clients[client_index].queue_message(message)
