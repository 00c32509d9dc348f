"""Message-driven node daemons: servers and clients behind dispatch loops.

A :class:`ServerNode`/:class:`ClientNode` wraps a
:class:`~repro.core.server.DissentServer` (through its
:class:`~repro.core.engine.RoundEngine`)/:class:`~repro.core.client.DissentClient`
behind an inbound frame dispatch loop, so the protocol runs by
**receiving messages** instead of having a driver call methods:

* client ciphertext submission — a signed ``client-ciphertext`` envelope
  sent to the client's upstream server
  (:meth:`~repro.core.config.GroupDefinition.upstream_server`);
* server inventory / commit / reveal / signature exchange — signed
  envelopes broadcast between server peers, gated so out-of-order
  arrival (a fast peer racing a slow one) buffers instead of faulting;
* round-output broadcast — each server pushes the certified output to
  its attached clients as a signed ``round-output`` envelope;
* accusation reveals — servers answer trace requests with signed
  ``accusation-reveal`` envelopes, making equivocation attributable.

The dispatch loop **never crashes on adversarial input**: malformed
frames, unknown message types, and protocol-state violations are
reported to the coordinator as typed ``node-error`` frames and the loop
keeps serving.  Nor does it keep what it served: each frame is received,
decoded and dispatched inside one call, so a node waiting for its next
frame holds none of the last.  A client node keeps no delivery history
either; the coordinator reads deliveries off the certified records and
never asks a client for them.

Run ``python -m repro.net.node CONFIG.json`` to start one node as a real
operating-system process that dials the session hub over TCP — this is
what :class:`repro.net.runner.NetworkedSession` spawns in multi-process
mode.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib
import json
import random
import sys
import time

from repro.core.client import DissentClient
from repro.core.config import GroupDefinition
from repro.core.engine import (
    ArmTimer,
    Broadcast,
    Conviction,
    Fault,
    InventoryStatus,
    PhaseBoundary,
    RoundDone,
    RoundEngine,
)
from repro.core.keyshuffle import pack_cipher_vector
from repro.core.server import DissentServer
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import (
    AccusationError,
    ConnectionClosed,
    DissentError,
    FrameTooLarge,
    FrameTruncated,
    ProtocolError,
    WireDecodeError,
)
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    LEADER_PROPOSE,
    ROUND_OUTPUT,
    SERVER_COMMIT,
    SERVER_INVENTORY,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    SERVER_VOTE,
    VIEW_CHANGE,
    SignedEnvelope,
)
from repro.net.transport import RetryPolicy, Transport, connect_tcp
from repro.net.wire import (
    K_ACC_OUTCOME,
    K_ACC_REQUEST,
    K_COMMIT_GO,
    K_DISCLOSURE_REQUEST,
    K_ENVELOPE,
    K_EVIDENCE_REQUEST,
    K_EXPEL,
    K_FLIGHT,
    K_HEALTH,
    K_HELLO,
    K_INVENTORY_STATUS,
    K_NODE_ERROR,
    K_POST,
    K_REBUT_REQUEST,
    K_REPLY,
    K_REPLY_ERROR,
    K_RESTORE,
    K_ROUND_ABANDON,
    K_ROUND_APPLIED,
    K_ROUND_BEGIN,
    K_ROUND_DONE,
    K_ROUND_FAILED,
    K_SCHED_REQUEST,
    K_SCHEDULE,
    K_SHUTDOWN,
    K_SNAPSHOT,
    K_STATUS_REQUEST,
    K_TELEMETRY,
    K_TRACE,
    decode_control,
    decode_envelope,
    decode_int_list,
    decode_int_pairs,
    decode_routed,
    encode_control,
    encode_envelope,
    encode_evidence,
    encode_rebuttal,
    encode_round_done_body,
    encode_routed,
    encode_routed_envelope,
)
from repro.obs import metrics as _obs
from repro.obs.export import flight_ndjson, write_flight_dump
from repro.obs.propagate import TraceContext
from repro.obs.trace import NULL_TRACER, Tracer
from repro.persist.checkpoint import read_checkpoint, write_checkpoint
from repro.persist.codec import decode_node_state, encode_node_state
from repro.util.serialization import canonical_json

#: The hub/orchestrator's reserved routing name.
COORDINATOR = "coord"

#: Bound on envelopes buffered for rounds a node has not opened yet —
#: out-of-order arrival is legitimate (a fast peer), unbounded buffering
#: of unopened rounds is a memory hole.
_MAX_EARLY_ENVELOPES = 1024


class NodeRuntime:
    """Shared dispatch loop: recv → decode → handle, with error isolation."""

    def __init__(
        self,
        name: str,
        definition: GroupDefinition,
        transport: Transport,
        registry=None,
        reconnect=None,
        retry: RetryPolicy | None = None,
        checkpoint_path: str | None = None,
    ) -> None:
        self.name = name
        self.definition = definition
        self.group = definition.group
        self.transport = transport
        self._stopped = False
        # Wire accounting sinks here (null = disabled); clocks are only
        # read for telemetry, never for protocol decisions, so telemetry
        # cannot perturb protocol bytes.
        self.registry = registry if registry is not None else _obs.NULL_REGISTRY
        self._clock = time.monotonic
        #: Optional async factory returning a fresh transport to the hub;
        #: when set, a dropped connection triggers reconnect-and-resume
        #: instead of ending the dispatch loop.
        self.reconnect = reconnect
        self.retry = retry if retry is not None else RetryPolicy()
        #: When set, the node checkpoints its own state here at every
        #: round barrier; a restarted process resumes from that file.
        self.checkpoint_path = checkpoint_path
        #: The node's one timer and one event log: a wall-clock tracer
        #: (timestamps comparable across processes) whose every record also
        #: feeds the registry's ``span.*`` histograms, and whose tail is the
        #: node's flight dump.  Null when telemetry is off.
        self.tracer = (
            Tracer(registry=self.registry, clock=time.time)
            if self.registry.enabled
            else NULL_TRACER
        )
        #: Directory for automatic flight dumps; None keeps them in memory
        #: only (still pullable via the ``flight`` control frame).
        self.flight_dir: str | None = None
        #: Flight dumps written so far: the index in the next file name.
        self.flight_dumps = 0
        #: Restore generation, bumped on every crash-recovery restore so
        #: the coordinator can deduplicate re-shipped telemetry snapshots.
        self.generation = 0
        self.started_at = self._clock()
        #: Trace context carried by the frame currently being dispatched.
        self._inbound_trace = b""
        #: Inbound frames processed — the resume high-water mark the hub
        #: uses to replay exactly the frames this node never saw.
        self.recv_count = 0
        #: ``recv_count`` as of the checkpoint this node last wrote or
        #: resumed from: the most a checkpointing node may ack.
        self._durable_count = 0
        #: Rounds fully applied (completed, failed, or abandoned).
        self.rounds_done = 0
        #: Outbound frames a dead transport swallowed; flushed in order
        #: after the resume handshake so nothing is silently lost.
        self._unsent: list[bytes] = []

    # -- plumbing ------------------------------------------------------

    @property
    def ack(self) -> int:
        """The ack every outbound frame carries: inbound frames the hub may
        forget.  A node without a checkpoint acks all it has processed; a
        checkpointing node acks only what its last checkpoint covers, so a
        restart from that file still finds the rest of its gap outboxed."""
        if self.checkpoint_path is None:
            return self.recv_count
        return self._durable_count

    async def _send(
        self, to: str, kind: str, seq: int, body: bytes, trace: bytes = b""
    ) -> None:
        await self._send_payload(
            encode_routed(to, self.name, kind, seq, body, trace, ack=self.ack)
        )

    async def _send_payload(self, payload: bytes) -> None:
        self.registry.counter("net.sent.frames.total").inc()
        self.registry.counter("net.sent.bytes.total").inc(len(payload))
        try:
            await self.transport.send(payload)
        except (ConnectionClosed, OSError):
            # The link is dark.  Hold the frame; the dispatch loop will
            # notice on its next recv and run the reconnect handshake,
            # which flushes this buffer after the hello.
            self._unsent.append(payload)

    async def _send_envelope(
        self, to: str, envelope: SignedEnvelope, trace: bytes = b""
    ) -> None:
        self.registry.counter(f"net.sent.frames.{envelope.msg_type}").inc()
        self.registry.counter(f"net.sent.bytes.{envelope.msg_type}").inc(
            len(envelope.body)
        )
        # The round's trace context rides outside the signed body, so
        # receivers that ignore it still verify the envelope unchanged.
        await self._send_payload(
            encode_routed_envelope(
                self.group, to, self.name, envelope, trace=trace, ack=self.ack
            )
        )

    async def _tell(self, kind: str, *fields) -> None:
        """Send the coordinator an unasked ``kind`` frame of ``fields``."""
        await self._send(COORDINATOR, kind, 0, encode_control(kind, *fields))

    async def _report(
        self, exc: Exception, to: str = COORDINATOR, seq: int = 0
    ) -> None:
        """Tell ``to`` something went wrong: a node error, or the reply to
        its request ``seq`` if there is one; never raises."""
        kind = K_REPLY_ERROR if seq else K_NODE_ERROR
        try:
            await self._send(
                to, kind, seq, encode_control(kind, type(exc).__name__, str(exc))
            )
        except Exception:
            pass

    # -- the dispatch loop ---------------------------------------------

    async def _hello(self) -> None:
        """Announce backend and resume position to the hub: the hub
        refuses a mismatched backend with a typed error, and replays the
        frames past the announced high-water mark on a resume."""
        await self._tell(
            K_HELLO,
            self.group.name,
            self.group.element_bytes,
            self.definition.group_id(),
            self.rounds_done,
            self.recv_count,
        )

    async def _try_reconnect(self) -> bool:
        """Re-dial the hub with deterministic backoff; True on resume."""
        if self.reconnect is None:
            return False
        for attempt in range(self.retry.max_attempts):
            if attempt:
                await asyncio.sleep(self.retry.delay(attempt - 1))
            self.registry.counter("net.reconnect.attempts").inc()
            try:
                transport = await self.reconnect()
            except (OSError, ConnectionClosed, DissentError):
                continue
            self.transport = transport
            self.registry.counter("net.reconnect.successes").inc()
            await self._hello()
            # Flush sends the dead link swallowed, in original order.
            pending, self._unsent = self._unsent, []
            for payload in pending:
                try:
                    await self.transport.send(payload)
                except (ConnectionClosed, OSError):
                    self._unsent.append(payload)
            return True
        return False

    async def run(self) -> None:
        """Announce ourselves, then serve inbound frames until shutdown.

        One malformed or protocol-violating message must never take the
        node down: decode and handler errors are reported and the loop
        continues.  A dropped connection triggers the reconnect-and-
        resume handshake when a ``reconnect`` factory is configured;
        only an exhausted retry budget (or torn framing) ends the loop.
        """
        await self._hello()
        while not self._stopped and await self._serve_one():
            pass
        await self.transport.aclose()

    async def _serve_one(self) -> bool:
        """Receive and dispatch one frame; False once the loop must end.

        The frame lives in this call only, so a node waiting for its next
        frame holds none of the last one (a bulk round's frames are
        ~500 KiB each).
        """
        try:
            payload = await self.transport.recv()
        except ConnectionClosed:
            self._trigger("link_loss")
            return await self._try_reconnect()
        except (FrameTooLarge, FrameTruncated) as exc:
            # The stream position is gone; nothing to salvage.
            await self._report(exc)
            return False
        # Count the frame *before* dispatch: the hub's replay contract
        # is "frames beyond the high-water mark were never seen", and
        # a frame that crashes its handler was still seen.
        self.recv_count += 1
        try:
            frame = decode_routed(payload)
        except WireDecodeError as exc:
            self.registry.counter("net.decode_errors").inc()
            await self._report(exc)
            return True
        await self._dispatch(frame)
        return True

    async def _dispatch(self, frame) -> None:
        # Dispatch is strictly sequential per node, so a single slot for
        # the inbound trace context is race-free.
        self._inbound_trace = frame.trace
        try:
            if frame.kind != K_ENVELOPE and frame.sender != COORDINATOR:
                # Peers talk only in signed envelopes; every other kind is
                # the coordinator's to send.
                raise ProtocolError(
                    f"{self.name}: {frame.kind!r} frame from {frame.sender!r}; "
                    "control frames come from the coordinator"
                )
            result = await self.handle(frame.kind, frame.body)
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            if isinstance(exc, WireDecodeError):
                self.registry.counter("net.decode_errors").inc()
            await self._report(
                exc, frame.sender if frame.seq else COORDINATOR, frame.seq
            )
            return
        if frame.seq:
            await self._send(frame.sender, K_REPLY, frame.seq, result or b"")

    async def handle(self, kind: str, body: bytes) -> bytes | None:
        if kind == K_SHUTDOWN:
            self._stopped = True
            return b""
        if kind == K_TELEMETRY:
            # Ship this node's registry snapshot to the coordinator,
            # wrapped with identity and restore generation so snapshots
            # re-shipped across reconnects deduplicate instead of
            # double-counting; a disabled registry snapshots to ``{}``
            # and merges as a no-op.
            return canonical_json(
                {
                    "node": self.name,
                    "generation": self.generation,
                    "snapshot": self.registry.snapshot(),
                }
            )
        if kind == K_TRACE:
            return canonical_json([e.as_dict() for e in self.tracer.events])
        if kind == K_FLIGHT:
            return flight_ndjson(self.name, "manual", self.tracer.events).encode(
                "utf-8"
            )
        if kind == K_HEALTH:
            return canonical_json(self.health_snapshot())
        if kind == K_SNAPSHOT:
            return encode_node_state(self)
        if kind == K_RESTORE:
            # The pushed state comes from another session's hub; frames
            # processed on this one stay this hub's resume position.
            recv_count = self.recv_count
            self._restore(body)
            self.recv_count = recv_count
            return b""
        if kind == K_ENVELOPE:
            await self.handle_envelope(decode_envelope(self.group, body))
            return None
        raise WireDecodeError(f"{self.name}: unhandled frame kind {kind!r}")

    async def handle_envelope(self, envelope: SignedEnvelope) -> None:
        raise WireDecodeError(f"{self.name}: unexpected envelope {envelope.msg_type}")

    # -- health and flight plane ----------------------------------------

    role = "node"

    def health_snapshot(self) -> dict:
        """Cheap point-in-time liveness view (the ``/healthz`` body)."""
        uptime = self._clock() - self.started_at
        return {
            "node": self.name,
            "role": self.role,
            "rounds_done": self.rounds_done,
            "rounds_per_sec": self.rounds_done / uptime if uptime > 0 else 0.0,
            "uptime_s": uptime,
            "inflight": 0,
            "view": 0,
            "recv_count": self.recv_count,
            "generation": self.generation,
            "reconnects": self.registry.counter("net.reconnect.successes").value,
        }

    def _log_span(
        self,
        name: str,
        start: float,
        end: float,
        trace: TraceContext | None,
        /,
        parent_id: int | None = None,
        **attrs,
    ):
        """Record one span on the tracer (and so the registry).

        A trace context, when the coordinator sent one, only adds the
        trace id — and, for a span with no local parent, the remote parent
        it continues.  Returns the record, ``None`` with telemetry off.
        """
        if trace is not None:
            attrs["trace_id"] = trace.trace_id
            if parent_id is None:
                attrs["parent_ref"] = trace.span_ref
        return self.tracer.record(
            name, start, end, parent_id=parent_id, node=self.name, **attrs
        )

    def _trigger(self, event: str, /, **attrs) -> None:
        """Note a failure trigger, then dump the log's tail into ``flight_dir``."""
        self.tracer.note(event, node=self.name, **attrs)
        if write_flight_dump(
            self.flight_dir, self.name, self.flight_dumps, event, self.tracer.events
        ):
            self.flight_dumps += 1

    # -- durable state --------------------------------------------------

    def _restore(self, data: bytes) -> None:
        """Adopt a node checkpoint.  Each restore starts a new telemetry
        generation: the restored process re-accumulates its registry from
        zero, and the bumped generation tells the coordinator which
        snapshot supersedes which."""
        decode_node_state(self, data)
        self.generation += 1

    def _mark_round_done(self, round_number: int) -> None:
        self.rounds_done = max(self.rounds_done, round_number + 1)

    def _maybe_checkpoint(self) -> None:
        """Durably record this node's state at a round barrier."""
        if self.checkpoint_path is None:
            return
        write_checkpoint(
            self.checkpoint_path,
            encode_node_state(self),
            kind="node",
            registry=self.registry,
        )
        self._durable_count = self.recv_count

    def resume_from(self, path: str) -> None:
        """Rebuild the state the node checkpoint at ``path`` holds; what it
        covers is durable again."""
        self._restore(read_checkpoint(path, kind="node"))
        self._durable_count = self.recv_count


@dataclasses.dataclass
class _RoundClock:
    """What a server node keeps of one begun round besides the engine's
    record: its span state, view timer and forwarded trace (never
    protocol state).

    Wall-clock ``opened`` starts the node's round span and ``mark`` the
    phase in progress; ``span_id`` is the round span's id, allocated at
    open so phase records can parent to it; ``trace`` is the coordinator's
    context for the round, if one arrived, and ``forward`` the serialized
    child context this node's envelopes carry.  ``timer`` is the armed
    view timer.
    """

    opened: float
    mark: float
    span_id: int
    trace: TraceContext | None = None
    forward: bytes = b""
    timer: asyncio.TimerHandle | None = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class ServerNode(NodeRuntime):
    """One anytrust server as a message-driven daemon.

    The round logic lives in :class:`~repro.core.engine.RoundEngine`; this
    class is its I/O: frames in become engine inputs, engine effects
    become frames out, ``loop.call_later`` view timers, telemetry marks,
    flight events and checkpoints.
    """

    role = "server"

    def __init__(
        self,
        server: DissentServer,
        transport: Transport,
        registry=None,
        **runtime_kwargs,
    ) -> None:
        super().__init__(
            server.name, server.definition, transport, registry, **runtime_kwargs
        )
        self.server = server
        self.index = server.index
        self.engine = RoundEngine(server, self.registry)
        #: One record per begun round, dropped when the round closes.
        self._clocks: dict[int, _RoundClock] = {}
        self._early: dict[int, list[SignedEnvelope]] = {}
        self._early_count = 0
        #: Live view-timeout tasks, referenced so the loop cannot GC them.
        self._timeout_tasks: set = set()
        #: Health gauges: highest view entered and the last certified
        #: participation count (the live anonymity set).
        self._last_view = 0
        self._last_participation = 0

    # -- control handlers ----------------------------------------------

    async def handle(self, kind: str, body: bytes) -> bytes | None:
        if kind == K_SCHEDULE:
            self.server.learn_schedule(decode_control(K_SCHEDULE, body))
            return b""
        if kind == K_ROUND_BEGIN:
            round_number, packed = decode_control(K_ROUND_BEGIN, body)
            await self._begin_round(round_number, decode_int_list(packed))
            return None
        if kind == K_COMMIT_GO:
            (round_number,) = decode_control(K_COMMIT_GO, body)
            await self._apply(self.engine.commit_go(round_number))
            return None
        if kind == K_ROUND_ABANDON:
            (round_number,) = decode_control(K_ROUND_ABANDON, body)
            self.engine.abandon(round_number)
            self._close_round(round_number, "abandoned")
            self._trigger("abandon", round=round_number)
            self._maybe_checkpoint()
            return b""
        if kind == K_EXPEL:
            (client_index,) = decode_control(K_EXPEL, body)
            self.server.expel_client(client_index)
            return b""
        if kind == K_EVIDENCE_REQUEST:
            (round_number,) = decode_control(K_EVIDENCE_REQUEST, body)
            archive = self.server.archive.get(round_number)
            if archive is None:
                raise AccusationError(
                    f"round {round_number} is no longer archived"
                )
            return encode_evidence(archive.to_evidence())
        if kind == K_DISCLOSURE_REQUEST:
            round_number, bit_index = decode_control(K_DISCLOSURE_REQUEST, body)
            envelope = self.server.disclosure_envelope(round_number, bit_index)
            return encode_envelope(self.group, envelope)
        return await super().handle(kind, body)

    async def _begin_round(self, round_number: int, submitters) -> None:
        effects = self.engine.begin_round(round_number, submitters)
        if round_number in self.engine.rounds and round_number not in self._clocks:
            now = time.time()
            clock = self._clocks[round_number] = _RoundClock(
                now, now, self.tracer.allocate_id()
            )
            # Continue the coordinator's trace for this round, if any.  The
            # round span itself is recorded once the round closes; the
            # forwarded context re-parents outbound envelopes onto it.
            if self.tracer.enabled:
                clock.trace = TraceContext.from_bytes(self._inbound_trace)
            if clock.trace is not None:
                clock.forward = clock.trace.child(
                    self.name, clock.span_id
                ).to_bytes()
        await self._apply(effects)
        for envelope in self._early.pop(round_number, []):
            self._early_count -= 1
            self.registry.counter("net.early.flushed").inc()
            # Arrived before the round opened: one-way latency relative to
            # round open clamps to zero.
            self.registry.histogram(f"net.arrival.{envelope.msg_type}").observe(0.0)
            if round_number in self.engine.rounds:
                await self._apply(self.engine.deliver(envelope))

    def _close_round(self, round_number: int, status: str) -> None:
        """Record this node's round span, drop the round's record with its
        timer, and count the round done — which purges its early buffers."""
        clock = self._clocks.pop(round_number)
        clock.cancel_timer()
        self._log_span(
            "round",
            clock.opened,
            time.time(),
            clock.trace,
            span_id=clock.span_id,
            round=round_number,
            status=status,
        )
        self._mark_round_done(round_number)
        for stale in [r for r in self._early if r < self.rounds_done]:
            purged = len(self._early.pop(stale))
            self._early_count -= purged
            self.registry.counter("net.early.purged").inc(purged)

    def _mark_phase(self, round_number: int, phase: str) -> None:
        """Credit the time since the last boundary to ``phase``."""
        clock = self._clocks.get(round_number)
        if clock is None:
            return  # an effect that outlived its round (timer vs. dispatch)
        now = time.time()
        self._log_span(
            "phase",
            clock.mark,
            now,
            clock.trace,
            parent_id=clock.span_id,
            name=phase,
            round=round_number,
        )
        clock.mark = now

    # -- envelope handlers ---------------------------------------------

    async def handle_envelope(self, envelope: SignedEnvelope) -> None:
        if envelope.msg_type not in (
            CLIENT_CIPHERTEXT,
            SERVER_INVENTORY,
            SERVER_COMMIT,
            SERVER_REVEAL,
            SERVER_SIGNATURE,
            LEADER_PROPOSE,
            SERVER_VOTE,
            VIEW_CHANGE,
        ):
            raise WireDecodeError(
                f"{self.name}: unexpected envelope type {envelope.msg_type!r}"
            )
        round_number = envelope.round_number
        if round_number not in self.engine.rounds:
            if round_number < self.rounds_done:
                # Straggler for a finished or abandoned round: it can never
                # be replayed, so buffering it would only leak the early
                # budget.  Harmless, drop.
                self.registry.counter("net.stragglers_dropped").inc()
                return
            # Legitimate out-of-order arrival: a peer (or client) raced our
            # round-begin.  Buffer, bounded.
            if self._early_count >= _MAX_EARLY_ENVELOPES:
                self.registry.counter("net.early.dropped").inc()
                raise ProtocolError(
                    f"{self.name}: early-envelope buffer full, dropping "
                    f"round {round_number} {envelope.msg_type}"
                )
            self._early.setdefault(round_number, []).append(envelope)
            self._early_count += 1
            self.registry.counter("net.early.buffered").inc()
            self.registry.gauge("net.early.depth").set_max(self._early_count)
            return
        self.registry.histogram(f"net.arrival.{envelope.msg_type}").observe(
            time.time() - self._clocks[round_number].opened
        )
        await self._apply(self.engine.deliver(envelope))

    def _restore(self, data: bytes) -> None:
        super()._restore(data)
        # Checkpoints are cut at round barriers: anything at or below the
        # restored round count already finished, so replayed stragglers
        # for those rounds must drop instead of reopening state.
        self.engine.rounds.clear()
        for clock in self._clocks.values():
            clock.cancel_timer()
        self._clocks = {}
        self._early = {}
        self._early_count = 0

    def health_snapshot(self) -> dict:
        health = super().health_snapshot()
        health.update(
            inflight=len(self.engine.rounds),
            view=self._last_view,
            anonymity_set=self._last_participation,
        )
        return health

    async def run(self) -> None:
        """Serve the status endpoint alongside the dispatch loop.

        ``policy.health_port`` > 0 binds ``health_port + server_index`` on
        loopback with ``/metrics`` (OpenMetrics) and ``/healthz`` (JSON).
        The status plane is best-effort: a taken port logs a counter and
        the protocol node serves on regardless.
        """
        status_server = None
        base_port = self.definition.policy.health_port
        if base_port > 0:
            from repro.obs.health import (
                health_port_for,
                render_openmetrics,
                serve_health,
            )

            try:
                status_server = await serve_health(
                    lambda: render_openmetrics(
                        self.health_snapshot(), self.registry.snapshot()
                    ),
                    self.health_snapshot,
                    port=health_port_for(base_port, self.index),
                )
            except OSError:
                self.registry.counter("health.port_unavailable").inc()
        try:
            await super().run()
        finally:
            if status_server is not None:
                status_server.close()

    # -- applying engine effects -----------------------------------------

    async def _apply(self, effects: list) -> None:
        """Carry out what the engine asked for, in order."""
        for effect in effects:
            match effect:
                case Broadcast(envelope):
                    trace = self._forward(envelope.round_number)
                    for j in range(self.definition.num_servers):
                        if j != self.index:
                            await self._send_envelope(
                                self.definition.server_name(j), envelope, trace
                            )
                case PhaseBoundary(round_number, phase):
                    self._mark_phase(round_number, phase)
                case InventoryStatus(round_number, participation, ok):
                    self._last_participation = participation
                    await self._tell(
                        K_INVENTORY_STATUS, round_number, participation, int(ok)
                    )
                case ArmTimer(round_number, view):
                    self._arm_timer(round_number, view)
                case Conviction(round_number, view, leader):
                    self._trigger(
                        "equivocation",
                        round=round_number,
                        view=view,
                        leader=leader,
                    )
                case RoundDone():
                    await self._finish_round(effect)
                case Fault(error):
                    await self._report(error)

    def _forward(self, round_number: int) -> bytes:
        """The trace context this node's envelopes of the round carry."""
        clock = self._clocks.get(round_number)
        return clock.forward if clock is not None else b""

    def _arm_timer(self, round_number: int, view: int) -> None:
        """View timer: the retry budget, capped by the barrier knob."""
        self._last_view = max(self._last_view, view)
        if view > 0:
            self._trigger("view_change", round=round_number, view=view)
        clock = self._clocks.get(round_number)
        if clock is None:
            return  # the round closed while a timer task's effects waited
        clock.cancel_timer()
        clock.timer = asyncio.get_running_loop().call_later(
            min(self.retry.budget(), self.definition.policy.barrier_timeout),
            self._view_timer_fired,
            round_number,
            view,
        )

    def _view_timer_fired(self, round_number: int, view: int) -> None:
        task = asyncio.ensure_future(
            self._apply(self.engine.view_timer_expired(round_number, view))
        )
        self._timeout_tasks.add(task)
        task.add_done_callback(self._timeout_tasks.discard)

    async def _finish_round(self, done: RoundDone) -> None:
        """Push the certified output to our clients and report the round."""
        round_number = done.round_number
        out_envelope = self.server.output_envelope(done.output)
        trace = self._forward(round_number)
        for i in range(self.definition.num_clients):
            if self.definition.upstream_server(i) == self.index:
                await self._send_envelope(
                    self.definition.client_name(i), out_envelope, trace
                )
        self._mark_phase(round_number, "output")
        self._close_round(round_number, "certified")
        self._maybe_checkpoint()
        await self._send(
            COORDINATOR,
            K_ROUND_DONE,
            0,
            encode_round_done_body(self.group, done),
        )


class ClientNode(NodeRuntime):
    """One client as a message-driven daemon."""

    role = "client"

    def __init__(
        self,
        client: DissentClient,
        transport: Transport,
        registry=None,
        **runtime_kwargs,
    ) -> None:
        super().__init__(
            client.name, client.definition, transport, registry, **runtime_kwargs
        )
        self.client = client
        self.index = client.index

    async def handle(self, kind: str, body: bytes) -> bytes | None:
        if kind == K_SCHED_REQUEST:
            purpose, *keys = decode_control(K_SCHED_REQUEST, body)
            publics = [PublicKey.from_bytes(self.group, data) for data in keys]
            envelope = self.client.signed_scheduling_submission(publics, purpose)
            return encode_envelope(self.group, envelope)
        if kind == K_SCHEDULE:
            slot = self.client.learn_schedule(decode_control(K_SCHEDULE, body))
            return encode_control(K_SCHEDULE, slot)
        if kind == K_ROUND_BEGIN:
            round_number, packed = decode_control(K_ROUND_BEGIN, body)
            if self.index in decode_int_list(packed):
                context = (
                    TraceContext.from_bytes(self._inbound_trace)
                    if self.tracer.enabled
                    else None
                )
                started = time.time()
                envelope = self.client.produce_ciphertext(round_number)
                record = self._log_span(
                    "phase",
                    started,
                    time.time(),
                    context,
                    name="build",
                    round=round_number,
                )
                # The ciphertext envelope continues the trace with the
                # build span as the upstream server's causal parent.
                trace = (
                    context.child(self.name, record.span_id).to_bytes()
                    if context is not None
                    else b""
                )
                upstream = self.definition.upstream_server(self.index)
                await self._send_envelope(
                    self.definition.server_name(upstream), envelope, trace
                )
            return None
        if kind == K_ROUND_FAILED:
            round_number, participation = decode_control(K_ROUND_FAILED, body)
            self.client.handle_round_failure(round_number, participation)
            self._mark_round_done(round_number)
            self._trigger(
                "round_failure",
                round=round_number,
                participation=participation,
            )
            self._maybe_checkpoint()
            return b""
        if kind == K_POST:
            (message,) = decode_control(K_POST, body)
            self.client.queue_message(message)
            return b""
        if kind == K_STATUS_REQUEST:
            return encode_control(
                K_STATUS_REQUEST,
                int(self.client.has_pending_traffic),
                int(self.client.pending_accusation is not None),
            )
        if kind == K_ACC_REQUEST:
            width, *keys = decode_control(K_ACC_REQUEST, body)
            publics = [PublicKey.from_bytes(self.group, data) for data in keys]
            vector = self.client.accusation_submission(publics, width)
            return pack_cipher_vector(self.group, vector)
        if kind == K_ACC_OUTCOME:
            (handled,) = decode_control(K_ACC_OUTCOME, body)
            self.client.accusation_outcome(bool(handled))
            return b""
        if kind == K_REBUT_REQUEST:
            round_number, bit_index, packed = decode_control(K_REBUT_REQUEST, body)
            claimed = decode_int_pairs(packed)
            rebuttal = self.client.rebut(round_number, bit_index, claimed)
            return encode_rebuttal(self.group, rebuttal)
        return await super().handle(kind, body)

    async def handle_envelope(self, envelope: SignedEnvelope) -> None:
        if envelope.msg_type != ROUND_OUTPUT:
            raise WireDecodeError(
                f"{self.name}: unexpected envelope type {envelope.msg_type!r}"
            )
        if envelope.round_number < self.rounds_done:
            # A duplicated frame or a resume replay of a round this client
            # already applied; reapplying would step its schedule twice.
            self.registry.counter("net.stragglers_dropped").inc()
            return
        self.client.handle_output_envelope(envelope)
        self._mark_round_done(envelope.round_number)
        self._maybe_checkpoint()
        await self._tell(K_ROUND_APPLIED, envelope.round_number)



# ---------------------------------------------------------------------------
# Subprocess entry point
# ---------------------------------------------------------------------------


def _resolve_class(path: str):
    """Import ``package.module:ClassName`` (adversarial factories in tests)."""
    module_name, _, class_name = path.partition(":")
    if not module_name or not class_name:
        raise ValueError(f"node class must be 'module:Class', got {path!r}")
    return getattr(importlib.import_module(module_name), class_name)


def node_from_config(config: dict, transport: Transport):
    """Build the right node daemon from a spawn-config dictionary."""
    definition = GroupDefinition.from_canonical_bytes(
        bytes.fromhex(config["definition"])
    )
    key = PrivateKey(definition.group, int(config["private_x"], 16))
    rng = random.Random(config["rng_seed"])
    index = config["index"]
    kwargs = config.get("node_kwargs") or {}
    registry = None
    if config.get("telemetry"):
        # One node per process here, so the node's registry doubles as the
        # process-global sink: crypto hot-path counters from this process
        # ship back to the coordinator in the same snapshot.
        registry = _obs.MetricsRegistry()
        _obs.set_global_registry(registry)
    runtime_kwargs = {
        "checkpoint_path": config.get("checkpoint_path"),
        "retry": definition.policy.retry_policy(seed=index),
    }
    roles = {
        "server": (ServerNode, DissentServer),
        "client": (ClientNode, DissentClient),
    }
    if config["role"] not in roles:
        raise ValueError(f"unknown node role {config['role']!r}")
    node_class, factory = roles[config["role"]]
    if config.get("node_class"):
        factory = _resolve_class(config["node_class"])
    node = node_class(
        factory(definition, index, key, rng, **kwargs),
        transport,
        registry,
        **runtime_kwargs,
    )
    if config.get("flight_dir"):
        node.flight_dir = config["flight_dir"]
    if config.get("resume_from"):
        # Restart-from-checkpoint: rebuild the protocol state the
        # dead process had at its last round barrier, then let the hub's
        # replay close the gap between the checkpoint and the crash.
        node.resume_from(config["resume_from"])
    return node


async def _run_from_config(config: dict) -> None:
    host, port = config["host"], config["port"]
    retry = RetryPolicy(seed=config["index"])

    async def reconnect():
        return await connect_tcp(host, port)

    transport = await connect_tcp(host, port, retry=retry)
    node = node_from_config(config, transport)
    node.reconnect = reconnect
    await node.run()


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.net.node CONFIG.json`` — run one node process."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.net.node CONFIG.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        config = json.load(handle)
    asyncio.run(_run_from_config(config))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
