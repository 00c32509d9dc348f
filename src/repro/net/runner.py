"""`NetworkedSession`: the Dissent protocol over real transports.

The networked way of answering the
:class:`~repro.core.coordinator.Coordinator`: set-up, the per-round
go/abandon and certification decisions, blame and the session state are
the coordinator's — the same code :class:`~repro.core.session.DissentSession`
runs — and this class supplies what they ask of the members by passing
**only signed envelopes and control frames over transports**: clients
submit ciphertexts to their upstream server, servers exchange
inventories/commits/reveals/signatures peer to peer, outputs broadcast
back, shuffle submissions and accusation reveals cross the wire signed.
Each question the coordinator asks is one blocking request/reply barrier
from the caller's thread; the shuffles and the trace run on that thread,
never on the event loop.  Outputs, records, blame verdicts and the
coordinator's checkpointed state are bit-identical to the in-process
session for the same seed.

Three modes:

* ``"loopback"`` — every node in-process on one event loop, frames over
  deterministic in-memory transports (fault-injectable; fastest).
* ``"tcp"`` — every node in-process but framed over real asyncio TCP
  sockets on localhost.
* ``"subprocess"`` — every node a spawned ``python -m repro.net.node``
  operating-system process dialing the hub over localhost TCP.

Topology is hub-and-spoke: each node holds one transport to the session
hub, which routes frames by destination name (the coordinator relays but
cannot forge — every protocol message is signed end to end).
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import random
import sys
import tempfile
import threading
import time
from collections.abc import Mapping, Sequence

from repro.core.client import DissentClient
from repro.core.config import GroupDefinition, Policy
from repro.core.coordinator import Coordinator
from repro.core.engine import InventoryStatus, RoundDone
from repro.core.keyshuffle import unpack_cipher_vector
from repro.core.rounds import RoundRecord
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.crypto.keys import PrivateKey
from repro.errors import (
    AccusationError,
    ConnectionClosed,
    DissentError,
    GroupBackendMismatch,
    PeerUnreachable,
    ProtocolError,
    SessionTimeout,
    WireError,
)
import repro.errors as _errors_module
from repro.net import node as nodemod
from repro.net.node import (
    COORDINATOR,
    ClientNode,
    K_ACC_OUTCOME,
    K_ACC_REQUEST,
    K_COMMIT_GO,
    K_DELIVERED_REQUEST,
    K_DISCLOSURE_REQUEST,
    K_EVIDENCE_REQUEST,
    K_EXPEL,
    K_HELLO,
    K_INVENTORY_STATUS,
    K_NODE_ERROR,
    K_POST,
    K_REBUT_REQUEST,
    K_REPLY,
    K_REPLY_ERROR,
    K_ROUND_APPLIED,
    K_ROUND_BEGIN,
    K_ROUND_DONE,
    K_ROUND_FAILED,
    K_ROUND_ABANDON,
    K_RESTORE,
    K_SCHED_REQUEST,
    K_SCHEDULE,
    K_SHUTDOWN,
    K_SNAPSHOT,
    K_STATUS_REQUEST,
    K_TELEMETRY,
    K_TRACE,
    K_FLIGHT,
    K_HEALTH,
    ServerNode,
)
from repro.net.transport import (
    FaultSchedule,
    FaultyTransport,
    connect_tcp,
    loopback_pair,
    serve_tcp,
)
from repro.net.wire import (
    RoutedFrame,
    decode_accusation_reveal_body,
    decode_envelope,
    decode_evidence,
    decode_rebuttal,
    decode_round_done_body,
    decode_routed,
    decode_telemetry_body,
    encode_int_list,
    encode_int_pairs,
    encode_routed,
)
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
)
from repro.obs.flight import FlightRecorder
from repro.obs.propagate import TraceContext, round_trace_id, span_ref
from repro.persist.audit import AuditLog
from repro.persist.checkpoint import read_checkpoint, write_checkpoint
from repro.persist.codec import decode_coordinator_state, encode_coordinator_state
from repro.util.serialization import canonical_json, pack_fields, unpack_fields

#: Fallback for the coordinator barrier wait, matching the
#: :class:`~repro.core.config.Policy` default.  The live value is the
#: ``barrier_timeout`` policy knob — pass ``timeout=None`` (the default)
#: to :class:`NetworkedSession` to pick it up from the group definition.
DEFAULT_TIMEOUT = 120.0

MODES = ("loopback", "tcp", "subprocess")


class _PeerLink:
    """Hub-side delivery state for one named node, across reconnects.

    ``seq`` numbers every frame ever addressed to the peer; ``outbox``
    keeps the most recent ``limit`` of them so a reconnecting node can be
    replayed exactly the suffix beyond its announced high-water mark.
    ``transport is None`` means the peer is dark: frames keep queueing
    and the disconnect timestamp feeds the §3.7 expulsion budget.
    """

    def __init__(self, name: str, limit: int) -> None:
        self.name = name
        self.seq = 0
        self.limit = limit
        self.outbox: collections.deque = collections.deque()
        self.transport = None
        self.disconnected_at: float | None = None
        #: Frames a FaultSchedule has already judged — carried across
        #: reconnects so "kill at frame k" fires once, not per dial.
        self.fault_cursor = 0


class _Hub:
    """Routes frames between named peer links; coordinator traffic inboxes."""

    def __init__(
        self,
        group=None,
        session_id: bytes = b"",
        registry=None,
        outbox_limit: int = 512,
        faults: Mapping[str, FaultSchedule] | None = None,
    ) -> None:
        #: Live transports by name — the membership view (a dark peer's
        #: link survives in :attr:`links`, but it is not *in* here).
        self.transports: dict[str, object] = {}
        self.links: dict[str, _PeerLink] = {}
        self.inbox: asyncio.Queue = asyncio.Queue()
        self._ready = asyncio.Event()
        self._expected: set[str] = set()
        self._tasks: list[asyncio.Task] = []
        #: Backend contract peers must announce: (name, element width).
        self._backend = (group.name, group.element_bytes) if group else None
        self._session_id = session_id
        self._fatal: Exception | None = None
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._outbox_limit = outbox_limit
        self._faults = dict(faults or {})
        #: Optional callback(name, replayed_count) fired after a resume.
        self.on_resume = None
        #: Optional callback(name) fired when a peer's link goes dark.
        self.on_dark = None

    def expect(self, names: Sequence[str]) -> None:
        self._expected = set(names)

    async def wait_ready(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(self._ready.wait(), timeout)
        except asyncio.TimeoutError:
            missing = sorted(self._expected - set(self.transports))
            raise SessionTimeout(
                f"nodes never said hello within {timeout}s: {missing}",
                peer=", ".join(missing),
                kind="hello",
                deadline=timeout,
            ) from None
        if self._fatal is not None:
            raise self._fatal

    def _fail(self, exc: Exception) -> None:
        """Abort session bring-up with a typed error (not a slow timeout)."""
        self._fatal = exc
        self._ready.set()

    @staticmethod
    def _parse_hello(body: bytes):
        """(backend, width, session id, rounds done, high water) or None.

        The first two fields are the original hello; the trailing three
        are the resume handshake and default to "fresh node" when a peer
        speaks the short form.
        """
        try:
            fields = unpack_fields(body)
        except ValueError:
            return None
        if (
            len(fields) < 2
            or not isinstance(fields[0], str)
            or not isinstance(fields[1], int)
        ):
            return None
        session_id = fields[2] if len(fields) > 2 and isinstance(fields[2], bytes) else b""
        rounds_done = fields[3] if len(fields) > 3 and isinstance(fields[3], int) else 0
        high_water = fields[4] if len(fields) > 4 and isinstance(fields[4], int) else 0
        return (fields[0], fields[1], session_id, rounds_done, high_water)

    def _check_ready(self) -> None:
        if self._expected and self._expected <= set(self.transports):
            self._ready.set()

    def is_dark(self, name: str) -> bool:
        link = self.links.get(name)
        return link is not None and link.transport is None

    def dark_since(self, name: str) -> float | None:
        link = self.links.get(name)
        return link.disconnected_at if link is not None else None

    def _mark_dark(self, name: str, transport) -> None:
        """Record a lost link; frames now queue for replay."""
        link = self.links.get(name)
        if link is None or link.transport is not transport:
            return  # a newer connection already took over
        if isinstance(transport, FaultyTransport):
            link.fault_cursor = transport.sent
        link.transport = None
        link.disconnected_at = asyncio.get_running_loop().time()
        self.transports.pop(name, None)
        self.registry.counter("net.links.lost").inc()
        if self.on_dark is not None:
            self.on_dark(name)

    async def deliver(self, name: str, payload: bytes) -> None:
        """Send one frame to a peer, durably: every frame gets a sequence
        number and a bounded outbox slot, so a link that dies under us (or
        is already dark) turns into replay work instead of silent loss."""
        link = self.links.get(name)
        if link is None:
            raise ProtocolError(f"no transport registered for {name!r}")
        link.seq += 1
        link.outbox.append((link.seq, payload))
        while len(link.outbox) > link.limit:
            link.outbox.popleft()
        transport = link.transport
        if transport is None:
            return
        try:
            await transport.send(payload)
        except (ConnectionClosed, WireError, OSError):
            self._mark_dark(name, transport)

    async def _resume(self, link: _PeerLink, transport, high_water: int) -> bool:
        """Adopt a reconnecting peer's transport and replay its gap."""
        old = link.transport
        missed = [(seq, payload) for seq, payload in link.outbox if seq > high_water]
        if missed and missed[0][0] != high_water + 1 and link.outbox[0][0] > high_water + 1:
            # The bounded outbox evicted frames the peer never saw; a
            # partial replay would corrupt the protocol stream.
            await self.inbox.put(
                RoutedFrame(
                    to=COORDINATOR,
                    sender=link.name,
                    kind=K_NODE_ERROR,
                    seq=0,
                    body=pack_fields(
                        "ProtocolError",
                        f"{link.name} resumed at frame {high_water} but the "
                        f"outbox starts at {link.outbox[0][0]}; gap unreplayable",
                    ),
                )
            )
            await transport.aclose()
            return False
        link.transport = transport
        link.disconnected_at = None
        self.transports[link.name] = transport
        if old is not None:
            await old.aclose()
        for _seq, payload in missed:
            try:
                await transport.send(payload)
            except (ConnectionClosed, WireError, OSError):
                self._mark_dark(link.name, transport)
                return False
        if missed:
            self.registry.counter("net.replay.envelopes").inc(len(missed))
        self.registry.counter("net.links.resumed").inc()
        if self.on_resume is not None:
            self.on_resume(link.name, len(missed))
        return True

    async def attach(self, transport) -> None:
        """Serve one connection: handshake (fresh or resume), then route."""
        try:
            frame = decode_routed(await transport.recv())
        except (WireError, ConnectionClosed):
            await transport.aclose()
            return
        if frame.kind != K_HELLO or not frame.sender:
            await transport.aclose()
            return
        announced = self._parse_hello(frame.body) if frame.body else None
        if self._backend is not None and announced is not None:
            if announced[:2] != self._backend:
                self._fail(
                    GroupBackendMismatch(
                        f"node {frame.sender!r} runs group backend "
                        f"{announced[0]!r} ({announced[1]}-byte elements); "
                        f"this session requires {self._backend[0]!r} "
                        f"({self._backend[1]}-byte elements)"
                    )
                )
                await transport.aclose()
                return
        name = frame.sender
        if name == COORDINATOR:
            await transport.aclose()
            return
        schedule = self._faults.get(name)
        if schedule is not None:
            wrapped = FaultyTransport(transport, schedule)
            link = self.links.get(name)
            if link is not None:
                wrapped.sent = link.fault_cursor
            transport = wrapped
        link = self.links.get(name)
        if link is not None:
            # A name we know: only a resume handshake carrying this
            # session's id may take over the link — anything else is a
            # hijack attempt and is refused exactly as before.
            resume_id = announced[2] if announced else b""
            if not self._session_id or resume_id != self._session_id:
                await transport.aclose()
                return
            if not await self._resume(link, transport, announced[4]):
                return
        else:
            link = _PeerLink(name, self._outbox_limit)
            link.transport = transport
            self.links[name] = link
            self.transports[name] = transport
        self._check_ready()
        try:
            while True:
                payload = await transport.recv()
                try:
                    routed = decode_routed(payload)
                except WireError as exc:
                    await self.inbox.put(
                        RoutedFrame(
                            to=COORDINATOR,
                            sender=name,
                            kind=K_NODE_ERROR,
                            seq=0,
                            body=pack_fields(type(exc).__name__, str(exc)),
                        )
                    )
                    continue
                if routed.to == COORDINATOR:
                    await self.inbox.put(routed)
                    continue
                if routed.to not in self.links:
                    await self.inbox.put(
                        RoutedFrame(
                            to=COORDINATOR,
                            sender=name,
                            kind=K_NODE_ERROR,
                            seq=0,
                            body=pack_fields(
                                "WireError",
                                f"no route to {routed.to!r}",
                            ),
                        )
                    )
                    continue
                # Forward the payload bytes untouched: the hub relays
                # signed envelopes, it never reconstructs them — and for
                # an envelope frame ``decode_routed`` left the body a view,
                # so routing a 500 KiB frame copied none of it.
                await self.deliver(routed.to, payload)
        except (ConnectionClosed, WireError, OSError):
            pass
        finally:
            self._mark_dark(name, transport)
            await transport.aclose()

    def spawn_attach(self, transport) -> None:
        self._tasks.append(asyncio.create_task(self.attach(transport)))

    async def close(self) -> None:
        for transport in list(self.transports.values()):
            await transport.aclose()
        for task in self._tasks:
            task.cancel()


def dedupe_telemetry_replies(decoded: list[dict]) -> list[dict]:
    """Per-node telemetry replies → the snapshots that should be merged.

    Nodes wrap their registry snapshot as ``{"node", "generation",
    "snapshot"}`` so a reply can be attributed; after a reconnect storm
    or a node restart the coordinator may hold more than one reply for
    the same ``(node, generation)`` — counting both would double every
    counter.  Keep the first reply per identity; replies from a *new*
    generation (a restore bumps it) are genuinely fresh registries and
    merge normally.  Legacy bare snapshots (no wrapper) pass through
    untouched.
    """
    seen: set[tuple[str, int]] = set()
    snapshots: list[dict] = []
    for reply in decoded:
        if "snapshot" in reply and "node" in reply:
            identity = (str(reply["node"]), int(reply.get("generation", 0)))
            if identity in seen:
                continue
            seen.add(identity)
            snapshots.append(reply["snapshot"])
        else:
            snapshots.append(reply)
    return snapshots


def _raise_remote(body: bytes) -> None:
    try:
        name, message = unpack_fields(body)
    except ValueError:
        raise ProtocolError(f"unparseable remote error: {body!r}") from None
    exc_type = getattr(_errors_module, str(name), None)
    if isinstance(exc_type, type) and issubclass(exc_type, DissentError):
        raise exc_type(str(message))
    raise ProtocolError(f"remote {name}: {message}")


class NetworkedSession(Coordinator):
    """Drives one Dissent group end to end over real transports.

    Build with :meth:`build` (same signature spirit as
    :meth:`DissentSession.build <repro.core.session.DissentSession.build>`
    plus ``mode``), use as a context manager or call :meth:`close` when
    done — subprocesses and sockets are real resources.
    """

    def __init__(
        self,
        definition: GroupDefinition,
        server_keys: Sequence[PrivateKey],
        client_keys: Sequence[PrivateKey],
        rng: random.Random,
        mode: str = "loopback",
        server_seeds: Sequence[int] | None = None,
        client_seeds: Sequence[int] | None = None,
        server_factories: dict | None = None,
        client_factories: dict | None = None,
        timeout: float | None = None,
        telemetry: bool | None = None,
        faults: Mapping[str, FaultSchedule] | None = None,
        checkpoint_dir: str | None = None,
        audit_path: str | None = None,
        flight_dir: str | None = None,
    ) -> None:
        if mode not in MODES:
            raise ProtocolError(f"mode must be one of {MODES}, got {mode!r}")
        super().__init__(definition, server_keys, rng)
        self.mode = mode
        # None picks up the serialized policy knob, so a restored session
        # waits exactly as long as the one that wrote the checkpoint.
        self.timeout = (
            timeout if timeout is not None else definition.policy.barrier_timeout
        )
        # Telemetry only ever reads clocks and bumps counters, so the
        # default is on: the merged cross-process view is the whole point
        # of running networked.  Pass False to strip it entirely.
        self.telemetry = True if telemetry is None else bool(telemetry)
        if self.telemetry:
            self.registry = MetricsRegistry()
            # Wall clock, not perf_counter: coordinator spans must be
            # time-comparable with node spans recorded in other processes
            # so the stitched trace orders causally.
            self.tracer = Tracer(registry=self.registry, clock=time.time)
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
        #: Distributed tracing rides the telemetry switch AND the policy
        #: sampling knob; protocol bytes are identical either way.
        self._trace_enabled = (
            self.telemetry and definition.policy.trace_sampling
        )
        #: Coordinator-side flight recorder plus the dump directory shared
        #: with the nodes (subprocess nodes dump into it themselves).
        self.flight = FlightRecorder(
            definition.policy.flight_recorder_events,
            node=COORDINATOR,
            clock=time.time,
        )
        self.flight_dir = flight_dir
        self._client_keys = list(client_keys)
        self._server_seeds = list(
            server_seeds
            if server_seeds is not None
            else [rng.getrandbits(64) for _ in server_keys]
        )
        self._client_seeds = list(
            client_seeds
            if client_seeds is not None
            else [rng.getrandbits(64) for _ in client_keys]
        )
        self._server_factories = dict(server_factories or {})
        self._client_factories = dict(client_factories or {})
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._hub: _Hub | None = None
        self._tcp_server = None
        self._node_tasks: list[asyncio.Task] = []
        self._pump_task: asyncio.Task | None = None
        self._processes: dict[str, object] = {}
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._buckets: dict[tuple[str, int], asyncio.Queue] = {}
        self._node_errors: list[str] = []
        self._seq = 0
        self._started = False
        self._closed = False
        #: Chaos / recovery plumbing.
        self._faults = dict(faults or {})
        self.checkpoint_dir = checkpoint_dir
        self.audit = AuditLog(audit_path) if audit_path else None
        self.retry = definition.policy.retry_policy()
        #: Node state blobs a restored coordinator pushes after start.
        self._resume_payloads: dict[str, dict] | None = None
        #: In-process node run-tasks by name (chaos kill/restart targets).
        self._node_tasks_by_name: dict[str, asyncio.Task] = {}
        self._node_objects: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        group_name: str | None = None,
        num_servers: int = 3,
        num_clients: int = 8,
        policy: Policy | None = None,
        seed: int | None = None,
        mode: str = "loopback",
        server_factories: dict | None = None,
        client_factories: dict | None = None,
        timeout: float | None = None,
        telemetry: bool | None = None,
        faults: Mapping[str, FaultSchedule] | None = None,
        checkpoint_dir: str | None = None,
        audit_path: str | None = None,
        flight_dir: str | None = None,
    ) -> "NetworkedSession":
        """Fresh keys and node seeds, derived exactly as
        :meth:`DissentSession.build` derives them — the same ``seed``
        yields bit-identical keys, slots, outputs, and verdicts."""
        rng = random.Random(seed) if seed is not None else random.Random()
        built = build_keys(group_name, num_servers, num_clients, policy, rng)
        server_seeds = [rng.getrandbits(64) for _ in range(num_servers)]
        client_seeds = [rng.getrandbits(64) for _ in range(num_clients)]
        return cls(
            built.definition,
            built.server_keys,
            built.client_keys,
            rng,
            mode=mode,
            server_seeds=server_seeds,
            client_seeds=client_seeds,
            server_factories=server_factories,
            client_factories=client_factories,
            timeout=timeout,
            telemetry=telemetry,
            faults=faults,
            checkpoint_dir=checkpoint_dir,
            audit_path=audit_path,
            flight_dir=flight_dir,
        )

    def __enter__(self) -> "NetworkedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        if self._closed:
            raise ProtocolError("session is closed")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="dissent-net-loop", daemon=True
        )
        self._thread.start()
        self._call(self._start_async())
        self._started = True

    def _call(self, coro, timeout: float | None = None):
        """Run a coroutine on the session loop from the caller's thread.

        The outer cap is a backstop only: multi-barrier operations (a
        round has three) legitimately budget ``self.timeout`` per step,
        so the cap sits well above their sum and the per-step timeouts
        are what raise typed :class:`ProtocolError` on a wedged session.
        """
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(
            timeout if timeout is not None else 6 * self.timeout + 30
        )

    def _ask(self, names: Sequence[str], kind: str, body: bytes) -> list[bytes]:
        """One barrier from the caller's thread: the same request to every
        named node at once, their replies in ``names`` order."""
        self._ensure_started()

        async def barrier() -> list[bytes]:
            return await asyncio.gather(
                *[self._request(name, kind, body) for name in names]
            )

        return self._call(barrier())

    def _node_names(self) -> list[str]:
        return self._server_names() + self._client_names()

    def _make_server(self, j: int) -> DissentServer:
        factory, kwargs = self._server_factories.get(j, (DissentServer, {}))
        return factory(
            self.definition,
            j,
            self._server_keys[j],
            random.Random(self._server_seeds[j]),
            **kwargs,
        )

    def _make_client(self, i: int) -> DissentClient:
        factory, kwargs = self._client_factories.get(i, (DissentClient, {}))
        return factory(
            self.definition,
            i,
            self._client_keys[i],
            random.Random(self._client_seeds[i]),
            **kwargs,
        )

    async def _start_async(self) -> None:
        self._hub = _Hub(
            group=self.definition.group,
            session_id=self.definition.group_id(),
            registry=self.registry,
            outbox_limit=self.definition.policy.peer_outbox_frames,
            faults=self._faults,
        )
        self._hub.on_resume = self._note_resume
        self._hub.on_dark = self._note_dark
        self._hub.expect(self._node_names())
        if self.mode == "subprocess":
            await self._start_tcp_listener()
            await self._spawn_processes()
        elif self.mode == "tcp":
            await self._start_tcp_listener()
            await self._start_inprocess_nodes(tcp=True)
        else:
            await self._start_inprocess_nodes(tcp=False)
        await self._hub.wait_ready(self.timeout)
        self._pump_task = asyncio.create_task(self._pump())
        if self._resume_payloads:
            # A coordinator restarted from a checkpoint: push every node
            # the phase-machine state it held at the checkpoint barrier.
            await asyncio.gather(
                *[
                    self._request(name, K_RESTORE, canonical_json(payload))
                    for name, payload in self._resume_payloads.items()
                ]
            )
            self._resume_payloads = None

    def _event(self, event: str, **fields) -> None:
        """Chain a decision into the audit log; the control-plane ones are
        flight-recorder triggers too."""
        if self.audit is not None:
            self.audit.append(event, **fields)
        if event in ("view_change", "equivocation"):
            self._flight_event(event, **fields)

    def _note_resume(self, name: str, replayed: int) -> None:
        """Hub callback: one peer completed the resume handshake."""
        self._event("resume", node=name, replayed=replayed)

    def _note_dark(self, name: str) -> None:
        """Hub callback: one peer's link was just lost."""
        self._flight_event("link_loss", node=name)

    def _flight_event(self, event: str, **data) -> None:
        """Record a failure trigger; dump the ring when a dir is set.

        Every automatic dump is chained into the audit log, so the
        hash-chained history names the flight file that explains it.
        """
        self.flight.note(event, **data)
        if not (self.flight_dir and self.flight.enabled):
            return
        path = os.path.join(
            self.flight_dir,
            f"flight-{COORDINATOR}-{self.flight.dumps}-{event}.ndjson",
        )
        try:
            dumped = self.flight.dump(path, event)
        except OSError:
            return
        if dumped:
            self._event("flight_dump", path=dumped, reason=event)

    def _checkpoint_path_for(self, role: str, index: int) -> str | None:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"{role}-{index}.ckpt")

    async def _start_tcp_listener(self) -> None:
        async def handler(transport):
            await self._hub.attach(transport)

        self._tcp_server, self._port = await serve_tcp(handler, "127.0.0.1", 0)

    def _node_registry(self) -> MetricsRegistry | None:
        """A fresh per-node registry, or None (→ null) when disabled."""
        return MetricsRegistry() if self.telemetry else None

    def _make_reconnect(self, tcp: bool):
        """A transport factory nodes use to re-dial the hub after a drop."""
        if tcp:

            async def reconnect():
                return await connect_tcp("127.0.0.1", self._port)

        else:

            async def reconnect():
                hub_side, node_side = loopback_pair()
                self._hub.spawn_attach(hub_side)
                return node_side

        return reconnect

    async def _launch_inprocess_node(
        self, role: str, index: int, tcp: bool, resume_from: str | None = None
    ):
        """Connect, build, and run one in-process node; returns the node.

        A ``resume_from`` checkpoint is applied *before* the dispatch
        loop starts, so the hello already announces the restored resume
        position and the hub replays only the true gap.
        """
        if tcp:
            transport = await connect_tcp("127.0.0.1", self._port)
        else:
            hub_side, node_side = loopback_pair()
            self._hub.spawn_attach(hub_side)
            transport = node_side
        kwargs = {
            "registry": self._node_registry(),
            "reconnect": self._make_reconnect(tcp),
            "retry": self.definition.policy.retry_policy(seed=index),
            "checkpoint_path": self._checkpoint_path_for(role, index),
        }
        if role == "server":
            node = ServerNode(self._make_server(index), transport, **kwargs)
            name = self.definition.server_name(index)
        else:
            node = ClientNode(self._make_client(index), transport, **kwargs)
            name = self.definition.client_name(index)
        if resume_from is not None:
            node._restore_payload(read_checkpoint(resume_from, kind="node"))
        node.flight_dir = self.flight_dir
        task = asyncio.create_task(node.run())
        self._node_tasks.append(task)
        self._node_tasks_by_name[name] = task
        self._node_objects[name] = node
        return node

    async def _start_inprocess_nodes(self, tcp: bool) -> None:
        for j in range(self.definition.num_servers):
            await self._launch_inprocess_node("server", j, tcp)
        for i in range(self.definition.num_clients):
            await self._launch_inprocess_node("client", i, tcp)

    def _spawn_config(self, role: str, index: int) -> dict:
        factories = (
            self._server_factories if role == "server" else self._client_factories
        )
        keys = self._server_keys if role == "server" else self._client_keys
        seeds = self._server_seeds if role == "server" else self._client_seeds
        config = {
            "role": role,
            "index": index,
            "definition": self.definition.canonical_bytes().hex(),
            "private_x": format(keys[index].x, "x"),
            "rng_seed": seeds[index],
            "host": "127.0.0.1",
            "port": self._port,
            "telemetry": bool(self.telemetry),
        }
        checkpoint_path = self._checkpoint_path_for(role, index)
        if checkpoint_path is not None:
            config["checkpoint_path"] = checkpoint_path
        if self.flight_dir is not None:
            config["flight_dir"] = self.flight_dir
        if index in factories:
            factory, kwargs = factories[index]
            config["node_class"] = f"{factory.__module__}:{factory.__qualname__}"
            config["node_kwargs"] = kwargs
        return config

    async def _spawn_one_process(
        self, role: str, index: int, resume_from: str | None = None
    ):
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(nodemod.__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH", "")])
        )
        config = self._spawn_config(role, index)
        if resume_from is not None:
            config["resume_from"] = resume_from
        path = os.path.join(self._tmpdir.name, f"{role}-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        stderr_path = os.path.join(self._tmpdir.name, f"{role}-{index}.err")
        with open(stderr_path, "ab") as stderr_handle:
            process = await asyncio.create_subprocess_exec(
                sys.executable,
                "-m",
                "repro.net.node",
                path,
                env=env,
                stdout=asyncio.subprocess.DEVNULL,
                stderr=stderr_handle,
            )
        name = (
            self.definition.server_name(index)
            if role == "server"
            else self.definition.client_name(index)
        )
        self._processes[name] = process
        return process

    async def _spawn_processes(self) -> None:
        self._tmpdir = tempfile.TemporaryDirectory(prefix="dissent-net-")
        specs = [
            ("server", j) for j in range(self.definition.num_servers)
        ] + [("client", i) for i in range(self.definition.num_clients)]
        for role, index in specs:
            await self._spawn_one_process(role, index)

    def close(self) -> None:
        """Shut nodes down, reap subprocesses, stop the loop thread.

        Safe after a *failed* startup too: whatever was brought up before
        the failure (loop thread, listener, spawned processes, key files)
        is torn down even though the session never became usable.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop is None:
            return
        try:
            self._call(self._close_async(), timeout=60)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    async def _close_async(self) -> None:
        # Graceful shutdown requests need the reply pump; without it (a
        # failed startup) go straight to tearing connections down.
        if self._pump_task is not None:
            for name in self._node_names():
                if self._hub is None or name not in self._hub.transports:
                    continue
                try:
                    await asyncio.wait_for(self._request(name, K_SHUTDOWN, b""), 5)
                except Exception:
                    pass
        for process in self._processes.values():
            if process.returncode is not None:
                continue
            try:
                await asyncio.wait_for(process.wait(), 5)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        if self._pump_task is not None:
            self._pump_task.cancel()
        for task in self._node_tasks:
            task.cancel()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        if self._hub is not None:
            await self._hub.close()

    # ------------------------------------------------------------------
    # Coordinator plumbing
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """Demultiplex coordinator-bound frames: replies and statuses."""
        assert self._hub is not None
        while True:
            frame = await self._hub.inbox.get()
            if frame.kind in (K_REPLY, K_REPLY_ERROR):
                future = self._pending.pop(frame.seq, None)
                if future is not None and not future.done():
                    if frame.kind == K_REPLY:
                        future.set_result(frame.body)
                    else:
                        try:
                            _raise_remote(frame.body)
                        except DissentError as exc:
                            future.set_exception(exc)
                continue
            if frame.kind == K_NODE_ERROR:
                try:
                    name, message = unpack_fields(frame.body)
                except ValueError:
                    name, message = "WireError", repr(frame.body)
                self._node_errors.append(f"{frame.sender}: {name}: {message}")
                continue
            try:
                fields = unpack_fields(frame.body)
                round_number = fields[0] if fields and isinstance(fields[0], int) else -1
            except ValueError:
                round_number = -1
            bucket = self._buckets.setdefault(
                (frame.kind, round_number), asyncio.Queue()
            )
            bucket.put_nowait(frame)

    async def _send(
        self, to: str, kind: str, seq: int, body: bytes, trace: bytes = b""
    ) -> None:
        assert self._hub is not None
        payload = encode_routed(to, COORDINATOR, kind, seq, body, trace)
        if self.registry.enabled:
            self.registry.counter("net.coord.sent.frames").inc()
            self.registry.counter("net.coord.sent.bytes").inc(len(payload))
        # Delivery goes through the hub's per-peer link: a dark peer
        # queues the frame for resume replay instead of failing the send.
        await self._hub.deliver(to, payload)

    async def _request(self, to: str, kind: str, body: bytes) -> bytes:
        assert self._loop is not None
        self._seq += 1
        seq = self._seq
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        await self._send(to, kind, seq, body)
        try:
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            self._pending.pop(seq, None)
            detail = (
                f" (node errors: {self._node_errors})" if self._node_errors else ""
            )
            if self._hub is not None and self._hub.is_dark(to):
                raise PeerUnreachable(
                    f"{to} is dark and did not answer {kind} within "
                    f"{self.timeout}s{detail}",
                    peer=to,
                    kind=kind,
                    deadline=self.timeout,
                ) from None
            raise SessionTimeout(
                f"{to} did not answer {kind} within {self.timeout}s{detail}",
                peer=to,
                kind=kind,
                deadline=self.timeout,
            ) from None

    async def _gather(self, kind: str, round_number: int, count: int) -> list:
        """Collect ``count`` unsolicited frames of one kind for one round.

        Node errors reported *before* this barrier started are diagnostics
        only (error isolation: a node that survived a hostile frame keeps
        serving, so stale reports must not wedge later rounds); errors
        arriving while we are blocked abort the wait early, since they
        usually explain why the expected frame will never come.
        """
        bucket = self._buckets.setdefault((kind, round_number), asyncio.Queue())
        frames: list[RoutedFrame] = []
        errors_before = len(self._node_errors)
        deadline = asyncio.get_running_loop().time() + self.timeout
        while len(frames) < count:
            try:
                frames.append(bucket.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0 or len(self._node_errors) > errors_before:
                raise SessionTimeout(
                    f"waiting for {count} {kind} frames of round {round_number}, "
                    f"got {len(frames)}; node errors: "
                    f"{self._node_errors[errors_before:] or self._node_errors}",
                    kind=kind,
                    deadline=self.timeout,
                )
            try:
                frames.append(
                    await asyncio.wait_for(bucket.get(), min(remaining, 0.25))
                )
            except asyncio.TimeoutError:
                continue
        if bucket.empty():
            # A round's barrier keys are never gathered again; dropping the
            # drained queue keeps _buckets from growing one entry per round
            # for the session's lifetime.
            self._buckets.pop((kind, round_number), None)
        return frames

    async def _broadcast(
        self, names: Sequence[str], kind: str, body: bytes, trace: bytes = b""
    ) -> None:
        for name in names:
            await self._send(name, kind, 0, body, trace)

    def _server_names(self) -> list[str]:
        return [
            self.definition.server_name(j)
            for j in range(self.definition.num_servers)
        ]

    def _client_names(self, indices: Sequence[int] | None = None) -> list[str]:
        if indices is None:
            indices = range(self.definition.num_clients)
        return [self.definition.client_name(i) for i in indices]

    # ------------------------------------------------------------------
    # What the coordinator asks of the members: here, request frames
    # ------------------------------------------------------------------

    def _scheduling_submissions(self, purpose, publics):
        body = pack_fields(purpose, *[public.to_bytes() for public in publics])
        replies = self._ask(self._client_names(), K_SCHED_REQUEST, body)
        return [decode_envelope(self.definition.group, reply) for reply in replies]

    def _learn_schedule(self, elements):
        self._ask(self._node_names(), K_SCHEDULE, encode_int_list(elements))

    def _accusation_submissions(self, participants, publics, width):
        body = pack_fields(width, *[public.to_bytes() for public in publics])
        replies = self._ask(self._client_names(participants), K_ACC_REQUEST, body)
        return [unpack_cipher_vector(self.definition.group, reply) for reply in replies]

    def _accusation_outcome(self, participants, handled):
        self._ask(
            self._client_names(participants),
            K_ACC_OUTCOME,
            pack_fields(1 if handled else 0),
        )

    def _trace_evidence(self, verifier, round_number, bit_index):
        definition = self.definition
        group = definition.group
        [evidence] = self._ask(
            [definition.server_name(verifier)],
            K_EVIDENCE_REQUEST,
            pack_fields(round_number),
        )
        disclosures = []
        for j, reply in enumerate(
            self._ask(
                self._server_names(),
                K_DISCLOSURE_REQUEST,
                pack_fields(round_number, bit_index),
            )
        ):
            envelope = decode_envelope(group, reply)
            # The reveal is signed: equivocation here is attributable.
            envelope.verify(definition.server_keys[j])
            if envelope.round_number != round_number:
                raise AccusationError(f"server {j} revealed the wrong round")
            revealed_bit, disclosure = decode_accusation_reveal_body(
                group, envelope.body
            )
            if revealed_bit != bit_index or disclosure.server_index != j:
                raise AccusationError(f"server {j} revealed the wrong position")
            disclosures.append(disclosure)
        return decode_evidence(evidence), disclosures

    def _rebuttal(self, client_index, round_number, bit_index, claimed):
        [reply] = self._ask(
            self._client_names([client_index]),
            K_REBUT_REQUEST,
            pack_fields(round_number, bit_index, encode_int_pairs(dict(claimed))),
        )
        return decode_rebuttal(self.definition.group, reply)

    def _expel_member(self, client_index):
        self._ask(self._server_names(), K_EXPEL, pack_fields(client_index))

    def _pending_traffic(self):
        replies = self._ask(
            self._client_names(self.submitters(None)), K_STATUS_REQUEST, b""
        )
        return any(any(unpack_fields(reply)) for reply in replies)

    # ------------------------------------------------------------------
    # One DC-net round, message-driven
    # ------------------------------------------------------------------

    def run_round(self, online: set[int] | None = None) -> RoundRecord:
        """Execute one complete round purely by envelope exchange."""
        if not self.scheduled:
            raise ProtocolError("setup() must run before rounds")
        self._ensure_started()
        # Membership re-forms before the round: clients dark past the
        # retry budget are expelled (§3.7) instead of wedging every
        # subsequent round — and again after a failed one, before anything
        # else is asked of them.
        self._expel_dark()
        record = self._call(self._run_round_async(online))
        if not record.completed:
            self._expel_dark()
        return record

    async def _run_round_async(self, online: set[int] | None) -> RoundRecord:
        definition = self.definition
        r = self.round_number
        self.round_number += 1
        begin_body = pack_fields(r, encode_int_list(self.submitters(online)))
        trace_id = (
            round_trace_id(definition.group_id(), r)
            if self._trace_enabled
            else None
        )
        span_attrs = {"round": r, "node": COORDINATOR}
        if trace_id is not None:
            span_attrs["trace_id"] = trace_id
        with self.tracer.span("round", **span_attrs) as round_span:
            # The round-begin frames carry the trace context (trace id +
            # this span as parent) so every node's spans stitch under one
            # causal trace.  Pure metadata: empty when sampling is off,
            # and receivers ignore it for all protocol decisions.
            trace = (
                TraceContext(
                    trace_id, span_ref(COORDINATOR, round_span.span_id), r
                ).to_bytes()
                if trace_id is not None
                else b""
            )
            # Servers first so their round state opens before ciphertexts
            # land (late arrivals would only be buffered, but why make
            # them late).
            await self._broadcast(
                self._server_names(), K_ROUND_BEGIN, begin_body, trace
            )
            await self._broadcast(
                self._client_names(), K_ROUND_BEGIN, begin_body, trace
            )

            try:
                statuses = await self._gather(
                    K_INVENTORY_STATUS, r, definition.num_servers
                )
            except SessionTimeout as exc:
                # A submitter (or server) stayed dark through the whole
                # barrier: abandon the round rather than hang the group.
                return await self._abandon_round_async(r, str(exc))
            participation, go = self.inventory_decision(
                [InventoryStatus(*unpack_fields(frame.body)) for frame in statuses]
            )
            if not go:
                # §3.7 hard timeout: abandon, publish the fresh count.
                abandon_body = pack_fields(r)
                await asyncio.gather(
                    *[
                        self._request(name, K_ROUND_ABANDON, abandon_body)
                        for name in self._server_names()
                    ]
                )
                failed_body = pack_fields(r, participation)
                await asyncio.gather(
                    *[
                        self._request(name, K_ROUND_FAILED, failed_body)
                        for name in self._client_names()
                    ]
                )
                record = self.failed_round(r, participation)
                self._flight_event(
                    "round_failure", round=r, participation=participation
                )
                return record

            await self._broadcast(
                self._server_names(), K_COMMIT_GO, pack_fields(r)
            )
            dones = await self._gather(K_ROUND_DONE, r, definition.num_servers)
            # The output-applied barrier only waits on clients whose link
            # is up: a dark client's output envelope sits in its replay
            # queue and is applied on resume, so waiting for it would
            # wedge a round that every live member already finished.
            applied_expected = sum(
                1
                for i in range(definition.num_clients)
                if not self._hub.is_dark(definition.client_name(i))
            )
            try:
                await self._gather(K_ROUND_APPLIED, r, applied_expected)
            except SessionTimeout:
                # A client died inside the barrier; the round itself is
                # certified (every server reported done), so the laggard
                # catches up via replay rather than failing the round.
                self.registry.counter("session.applied_timeouts").inc()
            record = self.certified_round(
                r,
                {
                    definition.server_index_of(frame.sender): RoundDone(
                        *decode_round_done_body(definition.group, frame.body)
                    )
                    for frame in dones
                },
            )
        if self.tracer.enabled and self.tracer.events:
            self.flight.record_span(self.tracer.events[-1])
        return record

    async def _abandon_round_async(self, r: int, reason: str) -> RoundRecord:
        """Give up on a wedged round (§3.7) instead of hanging the group.

        Live servers roll the round back, live clients learn the failure
        immediately, dark clients find it in their replay queue when (if)
        they resume; :meth:`run_round` then runs the membership check, so a
        peer past its retry budget is expelled before the next round forms.
        """
        assert self._hub is not None
        abandon_body = pack_fields(r)
        for name in self._server_names():
            try:
                await self._request(name, K_ROUND_ABANDON, abandon_body)
            except DissentError:
                continue
        live = [
            i
            for i in range(self.definition.num_clients)
            if i not in self.expelled
            and not self._hub.is_dark(self.definition.client_name(i))
        ]
        participation = len(live)
        failed_body = pack_fields(r, participation)
        for i in range(self.definition.num_clients):
            if i in self.expelled:
                continue
            name = self.definition.client_name(i)
            if self._hub.is_dark(name):
                # Fire-and-forget: queues in the outbox for resume replay.
                await self._send(name, K_ROUND_FAILED, 0, failed_body)
                continue
            try:
                await self._request(name, K_ROUND_FAILED, failed_body)
            except DissentError:
                continue
        record = self.failed_round(r, participation, reason)
        self.registry.counter("session.rounds_abandoned").inc()
        self._flight_event("abandon", round=r, reason=reason)
        return record

    def _expel_dark(self) -> None:
        """Expel clients that stayed dark past the reconnect budget."""
        assert self._hub is not None and self._loop is not None
        budget = self.retry.budget()
        now = self._loop.time()
        for i in self.submitters(None):
            name = self.definition.client_name(i)
            since = self._hub.dark_since(name)
            if (
                self._hub.is_dark(name)
                and since is not None
                and now - since > budget
                and self.expel(i)
            ):
                self._event(
                    "expulsion",
                    client=i,
                    reason="unreachable past retry budget",
                    dark_seconds=now - since,
                )

    # ------------------------------------------------------------------
    # Durable checkpoints and restart-from-checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self, path: str | os.PathLike) -> int:
        """Durably checkpoint the whole session at a round barrier.

        Captures the coordinator's state (the section an in-process
        checkpoint shares) plus every node's phase-machine state (gathered
        over ``snapshot`` control frames), as one versioned, checksummed,
        atomically-replaced file.  Returns the bytes written.
        """
        path = os.fspath(path)
        names = self._node_names()
        blobs = self._ask(names, K_SNAPSHOT, b"")
        payload = {
            "definition": self.definition.canonical_bytes().hex(),
            "mode": self.mode,
            "server_keys": [format(key.x, "x") for key in self._server_keys],
            "client_keys": [format(key.x, "x") for key in self._client_keys],
            "server_seeds": list(self._server_seeds),
            "client_seeds": list(self._client_seeds),
            "coordinator": encode_coordinator_state(self),
            "nodes": {
                name: json.loads(blob.decode("utf-8"))
                for name, blob in zip(names, blobs)
            },
        }
        written = write_checkpoint(
            path, payload, kind="net-session", registry=self.registry
        )
        self._event("checkpoint", path=path, round=self.round_number, bytes=written)
        return written

    @classmethod
    def restore(
        cls,
        path: str | os.PathLike,
        mode: str | None = None,
        timeout: float | None = None,
        telemetry: bool | None = None,
        faults: Mapping[str, FaultSchedule] | None = None,
        checkpoint_dir: str | None = None,
        audit_path: str | None = None,
    ) -> "NetworkedSession":
        """Rebuild a session from a coordinator checkpoint.

        Fresh nodes are started and then handed the phase-machine state
        they held at the checkpoint barrier over ``restore`` control
        frames, so the session continues with no round-record gaps.
        """
        payload = read_checkpoint(os.fspath(path), kind="net-session")
        definition = GroupDefinition.from_canonical_bytes(
            bytes.fromhex(payload["definition"])
        )
        group = definition.group
        server_keys = [
            PrivateKey(group, int(value, 16)) for value in payload["server_keys"]
        ]
        client_keys = [
            PrivateKey(group, int(value, 16)) for value in payload["client_keys"]
        ]
        session = cls(
            definition,
            server_keys,
            client_keys,
            random.Random(),
            mode=mode if mode is not None else payload["mode"],
            server_seeds=payload["server_seeds"],
            client_seeds=payload["client_seeds"],
            timeout=timeout,
            telemetry=telemetry,
            faults=faults,
            checkpoint_dir=checkpoint_dir,
            audit_path=audit_path,
        )
        decode_coordinator_state(session, payload["coordinator"])
        session._resume_payloads = dict(payload["nodes"])
        session._event("resume", node=COORDINATOR, round=session.round_number)
        return session

    # ------------------------------------------------------------------
    # Chaos harness: kill links and nodes, restart from checkpoints
    # ------------------------------------------------------------------

    def node_name(self, role: str, index: int) -> str:
        return (
            self.definition.server_name(index)
            if role == "server"
            else self.definition.client_name(index)
        )

    def kill_connection(self, name: str) -> None:
        """Sever a node's hub link mid-stream; the node must reconnect."""
        self._ensure_started()

        async def sever() -> None:
            assert self._hub is not None
            link = self._hub.links.get(name)
            if link is None or link.transport is None:
                return
            transport = link.transport
            self._hub._mark_dark(name, transport)
            await transport.aclose()

        self._call(sever())

    def kill_node(self, role: str, index: int) -> None:
        """Terminate one node without ceremony (SIGKILL in subprocess
        mode, task cancellation in-process); its link goes dark."""
        self._ensure_started()
        name = self.node_name(role, index)

        async def kill() -> None:
            process = self._processes.get(name)
            if process is not None and process.returncode is None:
                process.kill()
                await process.wait()
            task = self._node_tasks_by_name.pop(name, None)
            if task is not None:
                task.cancel()
            node = self._node_objects.pop(name, None)
            if node is not None:
                await node.transport.aclose()

        self._call(kill())
        self.registry.counter("chaos.nodes_killed").inc()

    def restart_node(
        self, role: str, index: int, resume_from: str | None = None
    ) -> None:
        """Start a fresh process/task for a killed node.

        ``resume_from`` defaults to the node's own checkpoint when the
        session has a ``checkpoint_dir`` — the restarted node rebuilds
        its barrier state from disk, then the hub's resume replay closes
        the remaining gap.
        """
        self._ensure_started()
        if resume_from is None:
            resume_from = self._checkpoint_path_for(role, index)
            if resume_from is not None and not os.path.exists(resume_from):
                resume_from = None

        async def restart() -> None:
            if self.mode == "subprocess":
                await self._spawn_one_process(role, index, resume_from=resume_from)
                return
            await self._launch_inprocess_node(
                role, index, tcp=(self.mode == "tcp"), resume_from=resume_from
            )

        self._call(restart())
        self.registry.counter("chaos.nodes_restarted").inc()

    def wait_dark(self, name: str, timeout: float = 10.0) -> None:
        """Block until the hub notices a peer's link is gone."""
        self._ensure_started()

        async def wait() -> None:
            deadline = asyncio.get_running_loop().time() + timeout
            while not self._hub.is_dark(name):
                if asyncio.get_running_loop().time() > deadline:
                    raise SessionTimeout(
                        f"{name} never went dark within {timeout}s",
                        peer=name,
                        kind="wait-dark",
                        deadline=timeout,
                    )
                await asyncio.sleep(0.01)

        self._call(wait())

    def wait_live(self, name: str, timeout: float = 10.0) -> None:
        """Block until a peer's link is (re)established."""
        self._ensure_started()

        async def wait() -> None:
            deadline = asyncio.get_running_loop().time() + timeout
            while name not in self._hub.transports:
                if asyncio.get_running_loop().time() > deadline:
                    raise SessionTimeout(
                        f"{name} never came back within {timeout}s",
                        peer=name,
                        kind="wait-live",
                        deadline=timeout,
                    )
                await asyncio.sleep(0.01)

        self._call(wait())

    # ------------------------------------------------------------------
    # Convenience for applications and tests
    # ------------------------------------------------------------------

    def _ask_live(self, kind: str) -> list[bytes]:
        """Ask every node whose link is up.  Dark peers cannot answer (a
        dead process took its state with it); skipping them beats stalling."""
        self._ensure_started()
        live = [name for name in self._node_names() if not self._hub.is_dark(name)]
        return self._ask(live, kind, b"")

    def metrics(self) -> dict:
        """Merged telemetry snapshot across the coordinator and all nodes.

        Each node (in-process or subprocess) ships its registry snapshot
        over a ``telemetry`` control message; counters and histogram
        buckets add, gauges keep their high-water mark.  With telemetry
        disabled this returns the coordinator's empty snapshot without
        touching the wire.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(self.registry.snapshot())
        if self.telemetry:
            decoded = [decode_telemetry_body(r) for r in self._ask_live(K_TELEMETRY)]
            for snapshot in dedupe_telemetry_replies(decoded):
                merged.merge_snapshot(snapshot)
        return merged.snapshot()

    def trace_events(self) -> list[dict]:
        """All finished spans — coordinator plus every live node.

        Each event dict carries a ``node`` attr and (when tracing was on
        for the round) a ``trace_id``/``parent_ref``, so
        :func:`repro.obs.critical.assemble_traces` can stitch one round's
        spans from every process into a single causal trace.
        """
        events = [e.as_dict() for e in self.tracer.events]
        if self._trace_enabled:
            for reply in self._ask_live(K_TRACE):
                events.extend(json.loads(reply.decode("utf-8")))
        return events

    def health(self) -> list[dict]:
        """One health snapshot per live node (servers and clients)."""
        return [json.loads(r.decode("utf-8")) for r in self._ask_live(K_HEALTH)]

    def flight_dumps(self) -> list[str]:
        """Current flight-recorder contents, coordinator first, as NDJSON."""
        dumps = [self.flight.ndjson("manual")] if self.flight.enabled else []
        return dumps + [r.decode("utf-8") for r in self._ask_live(K_FLIGHT)]

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        self._ask(self._client_names([client_index]), K_POST, pack_fields(message))

    def delivered_messages(self, client_index: int = 0) -> list[tuple[int, int, bytes]]:
        """(round, slot, message) triples as observed by one client."""
        [blob] = self._ask(
            self._client_names([client_index]), K_DELIVERED_REQUEST, pack_fields(0)
        )
        if not blob:
            return []
        return [tuple(unpack_fields(item)) for item in unpack_fields(blob)]
