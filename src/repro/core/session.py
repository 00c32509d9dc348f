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

Timing is intentionally absent here; the discrete-event simulator in
:mod:`repro.sim` models latency, bandwidth, and churn for the paper's
performance figures.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.client import DissentClient
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

    def snapshot_state(self) -> dict:
        """Capture all mutable session state at a round barrier.

        The coordinator's state plus every node's, in the JSON-native form
        :func:`repro.persist.save_session` writes to disk; long-lived
        identity (keys, definition) is excluded — a restore re-attaches
        state to freshly-built nodes holding the same keys.
        """
        from repro.persist.codec import encode_session_state

        return encode_session_state(self)

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot_state`."""
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
        """Execute one complete round.

        Args:
            online: client indices that submit this round (None = all).
                Offline clients still receive the certified output, as a
                reconnecting client would fetch it from its server.
        """
        if not self.scheduled:
            raise ProtocolError("setup() must run before rounds")
        r = self.round_number
        self.round_number += 1
        submitters = self.submitters(online)
        # The same trace-id scheme the networked runner uses, so local and
        # distributed runs of one group/round land under one trace name.
        span_attrs = {"round": r, "node": "local"}
        if self.tracer.enabled:
            span_attrs["trace_id"] = round_trace_id(
                self.definition.group_id(), r
            )
        with self.tracer.span("round", **span_attrs) as round_span:
            with round_span.child("phase", name="build"):
                envelopes = {
                    i: self.clients[i].produce_ciphertext(r) for i in submitters
                }
            with round_span.child("phase", name="submit"):
                pending = self.submit(r, envelopes)
            record = self.complete_round(r, pending, round_span)
            if record.completed:
                with round_span.child("phase", name="output"):
                    for client in self.clients:
                        client.handle_output(record.output)
            else:
                # §3.7 hard timeout: publish the fresh count.
                for client in self.clients:
                    client.handle_round_failure(r, record.participation)
            self.after_output(record)
        return record

    def replayed_slots(self, output: RoundOutput, layout: RoundLayout) -> list[int]:
        """The slots of a certified round that :meth:`after_output` blames.

        In hybrid mode, the open slots whose padding check fails: everyone
        decoding the output sees the corruption, so no accusation is
        needed to say so.  None in XOR mode, whose blame starts with a
        shuffle request in a later round (§3.9).  The pipelined driver
        drains to a barrier before a round that has any, as blame may
        expel a member.
        """
        policy = self.definition.policy
        if policy.dcnet_mode != "hybrid":
            return []
        return [
            slot
            for slot in range(layout.num_slots)
            if layout.is_open(slot)
            and decode_slot(layout, policy, slot, output.cleartext).is_corrupted
        ]

    def after_output(self, record: RoundRecord) -> None:
        """The step that runs once a round's outcome reached the clients.

        Both in-process drivers call it, lockstep and pipelined.  XOR mode
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
