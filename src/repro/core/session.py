"""In-process real-mode session: full protocol with actual cryptography.

:class:`DissentSession` wires client and server objects together through
signed envelopes, exactly as Algorithms 1 and 2 prescribe, but with method
calls standing in for sockets: each server runs the same
:class:`~repro.core.engine.RoundEngine` the networked daemons run, and the
session routes the engines' envelopes between them in process.  Every
signature, commitment, PRNG stream, shuffle proof, and trace step executes
for real — this is the object the integration tests, property tests, and
examples drive.

Timing is intentionally absent here; the discrete-event simulator in
:mod:`repro.sim` models latency, bandwidth, and churn for the paper's
performance figures.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.accusation import (
    Accusation,
    TraceVerdict,
    accusation_max_bytes,
    trace_accusation,
)
from repro.core.client import DissentClient
from repro.core.config import GroupDefinition, Policy
from repro.core.keyshuffle import (
    make_session_key,
    open_shuffle_submissions,
    run_key_shuffle,
    run_message_shuffle,
    shuffle_run_id,
    verify_session_keys,
)
from repro.consensus import (
    EquivocationProof,
    adopt_round_evidence,
    output_body_digest,
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
from repro.core.rounds import QuietOutcome, RoundRecord, RoundStatus
from repro.core.server import DissentServer
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.shuffle import message_vector_width
from repro.errors import (
    AccusationError,
    ProtocolError,
    TraceInconclusive,
)
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
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

    A new group starts with no signature verified: the process-wide memo
    of accepted signatures (:mod:`repro.crypto.schnorr`) is emptied here.
    A second group built from the same seed has the same keys and, signing
    being deterministic, the same signatures; it pays for its own set-up
    and rounds instead of finding the first group's answers.
    """
    from repro.core.config import make_group_definition, _GROUP_NAMES
    from repro.crypto import schnorr
    from repro.crypto.groups import resolve_group_name

    schnorr.forget_accepted()
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
    """Build the session type the policy's ``dcnet_mode`` selects.

    ``"xor"`` returns a plain :class:`DissentSession`; ``"hybrid"`` a
    :class:`repro.verdict.hybrid.HybridSession` (same surface, verifiable
    blame); ``"verifiable"`` a :class:`repro.verdict.session.VerdictSession`
    (proactive per-round proofs — a different, slot-per-round surface).
    """
    from repro.crypto.groups import resolve_group_name

    policy = policy or Policy()
    group_name = resolve_group_name(group_name, policy)
    if policy.dcnet_mode == "hybrid":
        from repro.verdict.hybrid import HybridSession

        return HybridSession.build(
            group_name, num_servers, num_clients, policy, seed
        )
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


class DissentSession:
    """Drives one Dissent group end to end, in process.

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
        self.definition = definition
        self.servers = list(servers)
        self.clients = list(clients)
        #: One sans-IO round machine per server; this session only routes
        #: their effects (see :meth:`complete_round`).
        self.engines = [RoundEngine(server) for server in self.servers]
        self.rng = rng if rng is not None else random.Random()
        self.round_number = 0
        self.records: list[RoundRecord] = []
        self.expelled: set[int] = set()
        self.convicted_servers: set[int] = set()
        self.equivocation_proofs: list[EquivocationProof] = []
        self.scheduled = False
        # Telemetry is disabled (null sinks) until enable_telemetry();
        # instrumented paths record unconditionally and the nulls discard.
        self.registry = NULL_REGISTRY
        self.tracer = NULL_TRACER

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

        Covers the driver (round counter, records, membership, RNG) and
        every node's own snapshot; long-lived identity (keys, definition)
        is excluded — a restore re-attaches state to freshly-built nodes
        holding the same keys.  JSON-durable form lives in
        :mod:`repro.persist`.
        """
        return {
            "round_number": self.round_number,
            "records": tuple(self.records),
            "expelled": set(self.expelled),
            "convicted_servers": set(self.convicted_servers),
            "equivocation_proofs": tuple(self.equivocation_proofs),
            "scheduled": self.scheduled,
            "rng_state": self.rng.getstate(),
            "servers": [server.snapshot_state() for server in self.servers],
            "clients": [client.snapshot_state() for client in self.clients],
        }

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot_state`."""
        self.round_number = snapshot["round_number"]
        self.records = list(snapshot["records"])
        self.expelled = set(snapshot["expelled"])
        self.convicted_servers = set(snapshot["convicted_servers"])
        self.equivocation_proofs = list(snapshot.get("equivocation_proofs", ()))
        self.scheduled = snapshot["scheduled"]
        self.rng.setstate(snapshot["rng_state"])
        for server, state in zip(self.servers, snapshot["servers"]):
            server.restore_state(state)
        for engine in self.engines:
            # Snapshots are cut at round barriers; submit() re-seeds the
            # rotation from the restored proofs.
            engine.rounds.clear()
            engine.convicted.clear()
        for client, state in zip(self.clients, snapshot["clients"]):
            client.restore_state(state)
        for index in self.expelled:
            for server in self.servers:
                server.expel_client(index)

    # ------------------------------------------------------------------
    # Setup: the key shuffle establishes the slot schedule
    # ------------------------------------------------------------------

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

    def setup(self) -> None:
        """Run the scheduling key shuffle and distribute slot assignments."""
        if self.scheduled:
            raise ProtocolError("session already scheduled")
        purpose = b"dissent.key-shuffle|" + self.definition.group_id()
        privates = []
        session_keys = []
        for j, server in enumerate(self.servers):
            private, session_key = make_session_key(server.key, j, purpose, self.rng)
            privates.append(private)
            session_keys.append(session_key)
        publics = verify_session_keys(self.definition, session_keys, purpose)
        # Clients sign their onion-encrypted submissions (bound to this
        # run's ephemeral mix keys, so they cannot be replayed into a
        # later session); one batched multi-exponentiation authenticates
        # the whole set before the cascade spends any mixing work on it.
        envelopes = [
            client.signed_scheduling_submission(publics, purpose)
            for client in self.clients
        ]
        submissions = open_shuffle_submissions(
            self.definition, envelopes, shuffle_run_id(purpose, publics)
        )
        result = run_key_shuffle(
            self.definition, privates, submissions, context=purpose, rng=self.rng
        )
        elements = list(result.slot_elements)
        for client in self.clients:
            client.learn_schedule(elements)
        for server in self.servers:
            server.learn_schedule(elements)
        self.scheduled = True

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
        self.records.append(record)
        if record.completed:
            self.registry.counter("session.rounds_completed").inc()
        else:
            self.registry.counter("session.rounds_failed").inc()
        if record.shuffle_requested:
            self.registry.counter("session.shuffle_requests").inc()
        return record

    def submitters(self, online: set[int] | None) -> list[int]:
        """The clients that send a ciphertext this round, in index order."""
        if online is None:
            online = range(self.definition.num_clients)
        return sorted(i for i in online if i not in self.expelled)

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

        The session plays network and coordinator at once: a broadcast is
        delivered to every peer engine, the M inventory statuses gate the
        commit-go (or abandon the round at the §3.7 floor), and the M
        ``RoundDone`` reports are reduced to one record by
        :func:`repro.consensus.adopt_round_evidence`.  Delivery is FIFO,
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
                    if len({s.participation for s in statuses.values()}) != 1:
                        raise ProtocolError(
                            "servers disagree on the participation count"
                        )
                    if not all(s.ok for s in statuses.values()):
                        # §3.7 hard timeout: abandon the round.
                        for engine in engines:
                            engine.abandon(r)
                        return RoundRecord(
                            round_number=r,
                            status=RoundStatus.FAILED,
                            participation=effect.participation,
                            output=None,
                        )
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
        output = dones[0].output
        if any(done.output != output for done in dones.values()):
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
        for _reporter, proof in convictions:
            self.convicted_servers.add(proof.leader)
            self.equivocation_proofs.append(proof)
        return RoundRecord(
            round_number=r,
            status=RoundStatus.COMPLETED,
            participation=output.participation,
            output=output,
            # The shuffle-request field is outside the masked payload on
            # purpose: it must stay readable even when the disruptor is
            # corrupting the rest of the slot (§3.9).
            shuffle_requested=any(done.shuffle_requested for done in dones.values()),
            certificate=certificate,
        )

    def run_rounds(self, count: int, online: set[int] | None = None) -> list[RoundRecord]:
        """Run several rounds; accusation shuffles fire automatically."""
        records = []
        for _ in range(count):
            record = self.run_round(online)
            records.append(record)
            if record.shuffle_requested:
                self.run_accusation_phase()
        return records

    # ------------------------------------------------------------------
    # Accusation phase (§3.9)
    # ------------------------------------------------------------------

    def run_accusation_phase(self) -> list[TraceVerdict]:
        """Run an accusation shuffle, trace valid accusations, expel."""
        with self.tracer.span("phase", name="blame"):
            verdicts = self._run_accusation_shuffle()
        self.registry.counter("session.accusation_phases").inc()
        self.registry.counter("session.trace_verdicts").inc(len(verdicts))
        return verdicts

    def _run_accusation_shuffle(self) -> list[TraceVerdict]:
        purpose = b"dissent.accusation-shuffle|" + self.definition.group_id()
        privates = []
        session_keys = []
        for j, server in enumerate(self.servers):
            private, session_key = make_session_key(server.key, j, purpose, self.rng)
            privates.append(private)
            session_keys.append(session_key)
        publics = verify_session_keys(self.definition, session_keys, purpose)
        width = message_vector_width(
            self.definition.group, accusation_max_bytes(self.definition.group)
        )
        participants = [
            i for i in range(self.definition.num_clients) if i not in self.expelled
        ]
        submissions = [
            self.clients[i].accusation_submission(publics, width)
            for i in participants
        ]
        result = run_message_shuffle(
            self.definition, privates, submissions, context=purpose, rng=self.rng
        )
        verdicts: list[TraceVerdict] = []
        for message in result.messages:
            if not message:
                continue
            try:
                accusation = Accusation.from_bytes(self.definition.group, message)
            except AccusationError:
                continue
            try:
                verdicts.extend(self.trace(accusation))
            except (AccusationError, TraceInconclusive):
                continue
        for verdict in verdicts:
            if verdict.culprit_kind == "client":
                self.expel(verdict.culprit_index)
            else:
                self.convicted_servers.add(verdict.culprit_index)
        handled = bool(verdicts)
        for i in participants:
            self.clients[i].accusation_outcome(handled)
        return verdicts

    def trace(self, accusation: Accusation, verifier: int = 0) -> list[TraceVerdict]:
        """Trace one accusation from an honest server's perspective."""
        server = self.servers[verifier]
        archive = server.archive.get(accusation.round_number)
        if archive is None:
            raise AccusationError(
                f"round {accusation.round_number} is no longer archived"
            )
        evidence = archive.to_evidence()
        disclosures = [
            s.trace_disclosure(accusation.round_number, accusation.bit_index)
            for s in self.servers
        ]
        slot_keys = [
            PublicKey(self.definition.group, element) for element in server.slot_keys
        ]

        def rebut(client_index: int, round_number: int, bit_index: int, claimed):
            return self.clients[client_index].rebut(round_number, bit_index, dict(claimed))

        return trace_accusation(
            self.definition.group,
            list(self.definition.client_keys),
            list(self.definition.server_keys),
            slot_keys,
            self.definition.group_id(),
            evidence,
            accusation,
            disclosures,
            rebut,
        )

    # ------------------------------------------------------------------
    # Membership management
    # ------------------------------------------------------------------

    def expel(self, client_index: int) -> None:
        """Expel a convicted disruptor from every server's roster."""
        self.expelled.add(client_index)
        for server in self.servers:
            server.expel_client(client_index)
        self.registry.counter("session.expulsions").inc()

    # ------------------------------------------------------------------
    # Convenience for applications and tests
    # ------------------------------------------------------------------

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        self.clients[client_index].queue_message(message)

    def delivered_messages(self, client_index: int = 0) -> list[tuple[int, int, bytes]]:
        """(round, slot, message) triples as observed by one client."""
        return list(self.clients[client_index].received)

    def run_until_quiet(self, max_rounds: int = 32) -> QuietOutcome:
        """Run rounds until no client has pending traffic.

        Returns a :class:`QuietOutcome` whose ``drained`` flag distinguishes
        traffic draining on the final allowed round from running out of
        rounds with messages still queued.
        """
        def quiet() -> bool:
            return not any(
                c.has_pending_traffic or c.pending_accusation
                for i, c in enumerate(self.clients)
                if i not in self.expelled
            )

        for used in range(max_rounds):
            if quiet():
                return QuietOutcome(used, True)
            record = self.run_round()
            if record.shuffle_requested:
                self.run_accusation_phase()
        return QuietOutcome(max_rounds, quiet())
