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

**Routing the round sequence.**  The round loop and the round machine
are the coordinator's; this class carries out the machine's effects and
feeds it the engines' answers.  ``window=W`` keeps up to W rounds in
flight: clients build round ``r+1`` while ``r`` is in its server
exchanges, assuming ``r``'s outcome changes nothing ``r+1`` was built on
(slot layout, own slot intact, §3.7 ``min_participation`` side, shuffle
request, a hybrid replay), so the clients are snapshotted and ``r``'s
own-slot deliveries confirmed early.  If the assumption breaks, or ``r``
fails, the window **drains to a barrier**: the younger rounds are
discarded, the clients restored and ``r``'s outcome applied as lockstep
applies it.  Every W is bit-identical to lockstep
(``tests/test_pipeline.py``); at ``window=1`` nothing is speculated.  In
verifiable mode a round is routed by
:func:`repro.verdict.session.route_verifiable_round` and filed before the
next is built, so any window runs lockstep.

Timing is intentionally absent here; the discrete-event simulator in
:mod:`repro.sim` models latency, bandwidth, and churn for the paper's
performance figures.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.client import DissentClient, _SentRecord
from repro.core.config import GroupDefinition, Policy
from repro.core.coordinator import (
    AbandonRound,
    ApplyRecord,
    BeginRound,
    CommitGo,
    Coordinator,
    DrainTo,
)
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
from repro.core.schedule import decode_slot
from repro.core.server import DissentServer
from repro.crypto.keys import PrivateKey
from repro.errors import AccusationError, ProtocolError
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
    from repro.core.config import make_group_definition
    from repro.crypto import schnorr
    from repro.crypto.groups import group_by_name, resolve_group_name

    schnorr.forget_accepted()
    schedule.forget_steps()
    group_name = resolve_group_name(group_name, policy)
    group = group_by_name(group_name)
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
) -> "DissentSession":
    """Build a :class:`DissentSession` that runs the policy's ``dcnet_mode``.

    The session reads the mode off the policy: ``"xor"`` blames by the
    §3.9 accusation shuffle, ``"hybrid"`` by verifiable replay of a
    corrupted slot (:mod:`repro.verdict.hybrid`), and ``"verifiable"``
    proves every contribution each round (:mod:`repro.verdict.session`).
    """
    return DissentSession.build(group_name, num_servers, num_clients, policy, seed)


@dataclass
class _InFlight:
    """The in-process side of a round the coordinator issued and has not
    filed yet."""

    #: The round's trace span, open until its outcome reached the clients.
    span: object
    #: Engine effects still to route, as ``(server, effect)``.  Those of
    #: the submit (the inventories) wait here: a round's §3.7 floor
    #: compares with the participation the round before it published, so
    #: they are routed only when this round is the oldest in flight.
    pending: collections.deque
    #: Set once a younger round is built while this one is in flight:
    #: every client's state before :meth:`DissentSession._speculate`, the
    #: records applied since, and the sent records confirmed ahead of time.
    snapshots: list[dict] | None = None
    applied: list[RoundRecord] = field(default_factory=list)
    confirmed: dict[int, _SentRecord] = field(default_factory=dict)


class DissentSession(Coordinator):
    """Drives one Dissent group end to end, in process.

    Runs the policy's ``dcnet_mode``: ``"xor"``, ``"hybrid"`` or
    ``"verifiable"`` (its rounds routed by
    :func:`repro.verdict.session.route_verifiable_round`).

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
        #: their effects (see :meth:`_route_engines`).
        self.engines = [RoundEngine(server) for server in self.servers]
        #: The in-process side of each round in the coordinator's window.
        self._flights: dict[int, _InFlight] = {}
        #: Round spans of discarded builds, reused when the round is rebuilt.
        self._spans: dict[int, object] = {}
        #: Hybrid mode's verifiable replays, in order (always empty in XOR).
        self.blames: list = []
        #: Verifiable mode's :class:`~repro.verdict.session.VerdictServer`s,
        #: built on its first round (always empty in the other modes).
        self.verifiers: list = []

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
        state to freshly-built nodes holding the same keys.  What set-up
        derived from those keys is included: each member's pair secrets
        and each client's pseudonym key, whose public element the schedule
        holds.  So a restart does no key agreement and no pseudonym
        exponentiation (``tests/test_bounded_state.py::TestTableCensus::
        test_a_restore_does_no_key_agreement``); the secrets are no more
        sensitive than the pseudonym keys and RNG states beside them."""
        from repro.persist.codec import encode_session_state

        return encode_session_state(self)

    def restore_state(self, snapshot: bytes) -> None:
        """Adopt a payload taken by :meth:`snapshot_state`."""
        from repro.persist.codec import decode_session_state

        decode_session_state(self, snapshot)
        for engine in self.engines:
            # Snapshots are cut at round barriers; the next round's begin
            # re-seeds the rotation from the restored proofs.
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
    # The round sequence, routed synchronously over the M round engines
    # ------------------------------------------------------------------

    def _route_round(self, upcoming: Sequence[set[int] | None]) -> RoundRecord:
        if self.definition.policy.dcnet_mode == "verifiable":
            from repro.verdict.session import route_verifiable_round

            return route_verifiable_round(self, upcoming[0])
        try:
            for online in upcoming[len(self.inflight) :]:
                self._carry(self.issue_round(online))
            r = next(iter(self.inflight))
            flight = self._flights[r]
            with flight.span:
                return self._route_engines(r, flight)
        except Exception as exc:
            self._carry(self.round_raised(exc))
            raise

    def _carry(self, effects: list) -> RoundRecord | None:
        """Carry out the coordinator's effects; the record once applied."""
        for effect in effects:
            match effect:
                case BeginRound(r, submitters):
                    self._begin(r, submitters)
                case CommitGo(r):
                    self._flights[r].pending.extend(
                        (j, e)
                        for j, engine in enumerate(self.engines)
                        for e in engine.commit_go(r)
                    )
                case AbandonRound(r):
                    for engine in self.engines:
                        if r in engine.rounds:
                            engine.abandon(r)
                case DrainTo(r):
                    self._drain(r)
                case ApplyRecord(record):
                    return self._finish(record)
        return None

    def _begin(self, r: int, submitters: Sequence[int]) -> None:
        """Build round ``r``, open it on every engine and hand each its
        clients' ciphertexts (a server's last one in lets it batch-verify
        and take inventory).  The round still in flight before it is
        speculated on first."""
        older = self._flights.get(r - 1)
        if older is not None:
            self._speculate(r - 1, older)
        # The same trace-id scheme the networked runner uses, so local and
        # distributed runs of one group/round land under one trace name.
        attrs = {"round": r, "node": "local"}
        if self.tracer.enabled:
            attrs["trace_id"] = round_trace_id(self.definition.group_id(), r)
        span = self._spans.pop(r, None) or self.tracer.span("round", **attrs)
        flight = self._flights[r] = _InFlight(span, collections.deque())
        with span.child("phase", name="build"):
            envelopes = {i: self.clients[i].produce_ciphertext(r) for i in submitters}
        # Engines convict from the proposals they see; a session restored
        # from a checkpoint re-seeds their rotation from the archived proofs.
        convicted = {proof.leader for proof in self.equivocation_proofs}
        with span.child("phase", name="submit"):
            for j, engine in enumerate(self.engines):
                engine.convicted |= convicted
                flight.pending.extend((j, e) for e in engine.begin_round(r, envelopes))
            for i, envelope in envelopes.items():
                j = self.definition.upstream_server(i)
                flight.pending.extend((j, e) for e in self.engines[j].deliver(envelope))

    def _speculate(self, r: int, flight: _InFlight) -> None:
        """Assume round ``r`` delivers every own slot intact, so the round
        built next does not resend its messages; keep what undoes it."""
        flight.snapshots = [client.snapshot_state() for client in self.clients]
        for i in self.inflight[r].submitters:
            sent = self.clients[i].speculate_delivery(r)
            if sent is not None:
                flight.confirmed[i] = sent

    def _speculation_holds(self, flight: _InFlight, record: RoundRecord) -> bool:
        """Whether the members' side of what the rounds built past a
        completed round assumed holds: every own slot arrives intact, no
        slot is replayed, and no client's §3.7 ``min_participation`` side
        flips (the coordinator checks the shuffle request and the layout).
        """
        output = record.output
        if not all(sent.arrived(output) for sent in flight.confirmed.values()):
            return False
        if self.replayed_slots(output):
            # Blame may expel a member before the next round.
            return False
        for client in self.clients:
            if client.min_participation <= 0:
                continue
            before = client.last_participation
            was_passive = before is not None and before < client.min_participation
            if was_passive != (output.participation < client.min_participation):
                return False
        return True

    def _drain(self, r: int) -> None:
        """Discard the rounds built past round ``r`` and take every client
        back to where lockstep stands before its outcome: the snapshot
        taken before its speculation, plus the outcomes applied since.

        Client randomness is drawn only by builds and by replays, which
        run with nothing younger in flight, and signatures use
        deterministic nonces, so the rebuilt rounds are byte-identical
        to the lockstep ones.
        """
        for stale in [s for s in self._flights if s > r]:
            for engine in self.engines:
                if stale in engine.rounds:
                    engine.discard(stale)
            self._spans[stale] = self._flights.pop(stale).span
        flight = self._flights[r]
        for client, snapshot in zip(self.clients, flight.snapshots):
            client.restore_state(snapshot)
        for record in flight.applied:
            self._apply(record)

    def _finish(self, record: RoundRecord) -> RoundRecord:
        """Apply a filed round's outcome, after the rounds built past it
        were checked (and drained if they assumed wrong)."""
        r = record.round_number
        flight = self._flights[r]
        if self.inflight:
            self._carry(
                self.speculation_checked(r, self._speculation_holds(flight, record))
            )
        del self._flights[r]
        if record.completed:
            with flight.span.child("phase", name="output"):
                self._apply(record)
        else:
            self._apply(record)
        for younger in self._flights.values():
            if younger.snapshots is not None:
                younger.applied.append(record)
        self.after_output(record)
        return record

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
        (§3.9).  A round that has any drains the window to a barrier, as
        blame may expel a member.
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

        It runs at every window.  XOR mode
        has nothing to do here; hybrid mode replays each corrupted slot
        (:func:`repro.verdict.hybrid.replay_corrupted_slots`).
        """
        if self.definition.policy.dcnet_mode == "hybrid":
            from repro.verdict.hybrid import replay_corrupted_slots

            replay_corrupted_slots(self, record)

    def _route_engines(self, r: int, flight: _InFlight) -> RoundRecord:
        """Route effects between the engines until round ``r`` is filed.

        The session plays the network: a broadcast is delivered to every
        peer engine, the M inventory statuses and then the M ``RoundDone``
        reports go to the coordinator's round sequence, and what it
        answers is carried out.  Delivery is FIFO, so phases complete in
        lockstep; when nothing is left to deliver and servers still wait,
        the lowest-indexed armed view timer expires — the only way time
        passes here.
        """
        engines = self.engines
        num_servers = len(engines)
        queue = flight.pending
        statuses: dict[int, InventoryStatus] = {}
        dones: dict[int, RoundDone] = {}
        timers: dict[int, int] = {}
        passed: collections.Counter = collections.Counter()
        tracer = self.tracer
        mark = tracer.clock() if tracer.enabled else 0.0
        while True:
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
                    if len(statuses) == num_servers:
                        record = self._carry(
                            self.statuses_received(r, list(statuses.values()))
                        )
                        if record is not None:
                            return record
                case ArmTimer(view=view):
                    timers[j] = view
                case PhaseBoundary(phase=phase) if phase != "submit":
                    # A phase ends for the session when its last server
                    # passes it (build and submit are timed at the begin).
                    passed[phase] += 1
                    if passed[phase] == num_servers and tracer.enabled:
                        now = tracer.clock()
                        tracer.record(
                            "phase", mark, now, parent_id=flight.span.span_id, name=phase
                        )
                        mark = now
                case RoundDone():
                    dones[j] = effect
                    timers.pop(j, None)
                    if len(dones) == num_servers:
                        return self._carry(self.dones_received(r, dones))
                case Fault(error=error):
                    raise error

    # ------------------------------------------------------------------
    # Convenience for applications and tests
    # ------------------------------------------------------------------

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        self.clients[client_index].queue_message(message)
