"""`NetworkedSession`: the Dissent protocol over real transports.

Matches the :class:`~repro.core.session.DissentSession` surface
(``setup`` / ``run_round`` / ``run_rounds`` / ``post`` /
``delivered_messages`` / ``run_until_quiet`` / ``run_accusation_phase``)
but executes rounds by passing **only signed envelopes over transports**:
clients submit ciphertexts to their upstream server, servers exchange
inventories/commits/reveals/signatures peer to peer, outputs broadcast
back, and accusation reveals cross the wire as signed envelopes.  Outputs,
records, and blame verdicts are bit-identical to the in-process session
for the same seed.

Three modes:

* ``"loopback"`` — every node in-process on one event loop, frames over
  deterministic in-memory transports (fault-injectable; fastest).
* ``"tcp"`` — every node in-process but framed over real asyncio TCP
  sockets on localhost.
* ``"subprocess"`` — every node a spawned ``python -m repro.net.node``
  operating-system process dialing the hub over localhost TCP.

Topology is hub-and-spoke: each node holds one transport to the session
hub, which routes frames by destination name (the coordinator relays but
cannot forge — every protocol message is signed end to end).  The
coordinator replaces :class:`DissentSession`'s direct method calls with
control barriers; all protocol content rides signed envelopes.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import os
import random
import sys
import tempfile
import threading
import time
from collections.abc import Mapping, Sequence

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
    unpack_cipher_vector,
    verify_session_keys,
)
from repro.core.rounds import QuietOutcome, RoundRecord, RoundStatus
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.consensus import adopt_round_evidence
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.shuffle import message_vector_width
from repro.errors import (
    AccusationError,
    ConnectionClosed,
    DissentError,
    GroupBackendMismatch,
    PeerUnreachable,
    ProtocolError,
    SessionTimeout,
    TraceInconclusive,
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
    decode_certificate_body,
    decode_envelope,
    decode_equivocation_proof_body,
    decode_rebuttal,
    decode_round_output_body,
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
from repro.persist.codec import (
    decode_equivocation_proof,
    decode_record,
    decode_rng_state,
    encode_equivocation_proof,
    encode_record,
    encode_rng_state,
)
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


class NetworkedSession:
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
        self.definition = definition
        self.mode = mode
        self.rng = rng
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
        self.round_number = 0
        self.records: list[RoundRecord] = []
        self.expelled: set[int] = set()
        self.convicted_servers: set[int] = set()
        #: Transferable equivocation proofs collected from round barriers;
        #: archived in checkpoints so a conviction survives a restart.
        self.equivocation_proofs: list = []
        self.scheduled = False
        self._server_keys = list(server_keys)
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
        self._slot_elements: list[int] = []
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

    def _node_names(self) -> list[str]:
        return [
            self.definition.server_name(j)
            for j in range(self.definition.num_servers)
        ] + [
            self.definition.client_name(i)
            for i in range(self.definition.num_clients)
        ]

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

    def _note_resume(self, name: str, replayed: int) -> None:
        """Hub callback: one peer completed the resume handshake."""
        if self.audit is not None:
            self.audit.append("resume", node=name, replayed=replayed)

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
        if dumped and self.audit is not None:
            self.audit.append("flight_dump", path=dumped, reason=event)

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

    def _client_names(self) -> list[str]:
        return [
            self.definition.client_name(i)
            for i in range(self.definition.num_clients)
        ]

    # ------------------------------------------------------------------
    # Setup: the key shuffle establishes the slot schedule
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Run the scheduling key shuffle over the wire.

        Session-key generation and the mix cascade run on the coordinator
        (exactly as the in-process driver runs them — and in the same RNG
        order, which is what keeps slots bit-identical), while every
        client's signed scheduling submission crosses the wire as a real
        ``shuffle-submission`` envelope.
        """
        if self.scheduled:
            raise ProtocolError("session already scheduled")
        self._ensure_started()
        self._call(self._setup_async())
        self.scheduled = True

    async def _setup_async(self) -> None:
        definition = self.definition
        purpose = b"dissent.key-shuffle|" + definition.group_id()
        privates = []
        session_keys = []
        for j in range(definition.num_servers):
            private, session_key = make_session_key(
                self._server_keys[j], j, purpose, self.rng
            )
            privates.append(private)
            session_keys.append(session_key)
        publics = verify_session_keys(definition, session_keys, purpose)
        body = pack_fields(purpose, *[public.to_bytes() for public in publics])
        replies = await asyncio.gather(
            *[
                self._request(definition.client_name(i), K_SCHED_REQUEST, body)
                for i in range(definition.num_clients)
            ]
        )
        envelopes = [decode_envelope(definition.group, reply) for reply in replies]
        submissions = open_shuffle_submissions(
            definition, envelopes, shuffle_run_id(purpose, publics)
        )
        result = run_key_shuffle(
            definition, privates, submissions, context=purpose, rng=self.rng
        )
        self._slot_elements = list(result.slot_elements)
        schedule_body = encode_int_list(self._slot_elements)
        await asyncio.gather(
            *[
                self._request(name, K_SCHEDULE, schedule_body)
                for name in self._server_names() + self._client_names()
            ]
        )

    # ------------------------------------------------------------------
    # One DC-net round, message-driven
    # ------------------------------------------------------------------

    def run_round(self, online: set[int] | None = None) -> RoundRecord:
        """Execute one complete round purely by envelope exchange."""
        if not self.scheduled:
            raise ProtocolError("setup() must run before rounds")
        self._ensure_started()
        return self._call(self._run_round_async(online))

    async def _run_round_async(self, online: set[int] | None) -> RoundRecord:
        definition = self.definition
        # Membership re-forms before the round: clients dark past the
        # retry budget are expelled (§3.7) instead of wedging every
        # subsequent round.
        await self._expel_dark_async()
        r = self.round_number
        self.round_number += 1
        if online is None:
            online = set(range(definition.num_clients))
        submitters = sorted(i for i in online if i not in self.expelled)
        begin_body = pack_fields(r, encode_int_list(submitters))
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
            participations = set()
            all_ok = True
            for frame in statuses:
                _, participation, ok = unpack_fields(frame.body)
                participations.add(participation)
                all_ok = all_ok and bool(ok)
            if len(participations) != 1:
                raise ProtocolError(
                    "servers disagree on the participation count"
                )
            participation = participations.pop()

            if not all_ok:
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
                record = RoundRecord(
                    round_number=r,
                    status=RoundStatus.FAILED,
                    participation=participation,
                    output=None,
                )
                self.records.append(record)
                self.registry.counter("session.rounds_failed").inc()
                if self.audit is not None:
                    self.audit.append(
                        "abandon",
                        round=r,
                        reason="participation below floor",
                        participation=participation,
                    )
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

            output_blobs = set()
            shuffle_requested = False
            certificates: dict[int, object] = {}
            proofs: dict[int, object] = {}
            for frame in dones:
                fields = unpack_fields(frame.body)
                if len(fields) < 3:
                    raise ProtocolError("round-done frame is missing fields")
                _, flag, blob = fields[:3]
                shuffle_requested = shuffle_requested or bool(flag)
                output_blobs.add(blob)
                sender = definition.server_index_of(frame.sender)
                if len(fields) > 3 and fields[3]:
                    certificates[sender] = decode_certificate_body(
                        definition.group, fields[3]
                    )
                if len(fields) > 4 and fields[4]:
                    proofs[sender] = decode_equivocation_proof_body(
                        definition.group, fields[4]
                    )
            if len(output_blobs) != 1:
                raise ProtocolError(
                    "servers disagree on the combined cleartext"
                )
            blob = output_blobs.pop()
            output = decode_round_output_body(definition.group, blob)
            certificate, convictions = adopt_round_evidence(
                definition,
                r,
                hashlib.sha256(blob).digest(),
                certificates,
                proofs,
                self.convicted_servers,
                self.registry,
            )
            if certificate.view > 0:
                if self.audit is not None:
                    self.audit.append(
                        "view_change",
                        round=r,
                        views=certificate.view,
                        leader=certificate.leader,
                        votes=len(certificate.votes),
                    )
                self._flight_event("view_change", round=r, views=certificate.view)
            for reporter, proof in convictions:
                self.convicted_servers.add(proof.leader)
                self.equivocation_proofs.append(proof)
                if self.audit is not None:
                    self.audit.append(
                        "equivocation",
                        round=proof.round_number,
                        view=proof.view,
                        leader=proof.leader,
                        reported_by=reporter,
                    )
                self._flight_event(
                    "equivocation", round=proof.round_number, leader=proof.leader
                )

            record = RoundRecord(
                round_number=r,
                status=RoundStatus.COMPLETED,
                participation=participation,
                output=output,
                shuffle_requested=shuffle_requested,
                certificate=certificate,
            )
            self.records.append(record)
        if self.tracer.enabled and self.tracer.events:
            self.flight.record_span(self.tracer.events[-1])
        self.registry.counter("session.rounds_completed").inc()
        if shuffle_requested:
            self.registry.counter("session.shuffle_requests").inc()
        return record

    async def _abandon_round_async(self, r: int, reason: str) -> RoundRecord:
        """Give up on a wedged round (§3.7) instead of hanging the group.

        Live servers roll the round back, live clients learn the failure
        immediately, dark clients find it in their replay queue when (if)
        they resume, and the membership check runs so a peer past its
        retry budget is expelled before the next round forms.
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
        record = RoundRecord(
            round_number=r,
            status=RoundStatus.FAILED,
            participation=participation,
            output=None,
        )
        self.records.append(record)
        self.registry.counter("session.rounds_failed").inc()
        self.registry.counter("session.rounds_abandoned").inc()
        if self.audit is not None:
            self.audit.append(
                "abandon", round=r, reason=reason, participation=participation
            )
        self._flight_event("abandon", round=r, reason=reason)
        await self._expel_dark_async()
        return record

    async def _expel_dark_async(self) -> list[int]:
        """Expel clients that stayed dark past the reconnect budget."""
        assert self._hub is not None
        budget = self.retry.budget()
        now = asyncio.get_running_loop().time()
        expelled = []
        for i in range(self.definition.num_clients):
            if i in self.expelled:
                continue
            name = self.definition.client_name(i)
            since = self._hub.dark_since(name)
            if (
                self._hub.is_dark(name)
                and since is not None
                and now - since > budget
            ):
                await self._expel_async(i)
                expelled.append(i)
                if self.audit is not None:
                    self.audit.append(
                        "expulsion",
                        client=i,
                        reason="unreachable past retry budget",
                        dark_seconds=now - since,
                    )
        return expelled

    def run_rounds(
        self, count: int, online: set[int] | None = None
    ) -> list[RoundRecord]:
        """Run several rounds; accusation shuffles fire automatically."""
        records = []
        for _ in range(count):
            record = self.run_round(online)
            records.append(record)
            if record.shuffle_requested:
                self.run_accusation_phase()
        return records

    # ------------------------------------------------------------------
    # Accusation phase (§3.9) over the wire
    # ------------------------------------------------------------------

    def run_accusation_phase(self) -> list[TraceVerdict]:
        """Accusation shuffle + trace; reveals cross the wire signed."""
        self._ensure_started()
        return self._call(self._run_accusation_async())

    async def _run_accusation_async(self) -> list[TraceVerdict]:
        with self.tracer.span("phase", name="blame"):
            verdicts = await self._run_accusation_shuffle()
        self.registry.counter("session.accusation_phases").inc()
        self.registry.counter("session.trace_verdicts").inc(len(verdicts))
        return verdicts

    async def _run_accusation_shuffle(self) -> list[TraceVerdict]:
        definition = self.definition
        purpose = b"dissent.accusation-shuffle|" + definition.group_id()
        privates = []
        session_keys = []
        for j in range(definition.num_servers):
            private, session_key = make_session_key(
                self._server_keys[j], j, purpose, self.rng
            )
            privates.append(private)
            session_keys.append(session_key)
        publics = verify_session_keys(definition, session_keys, purpose)
        width = message_vector_width(
            definition.group, accusation_max_bytes(definition.group)
        )
        participants = [
            i for i in range(definition.num_clients) if i not in self.expelled
        ]
        body = pack_fields(width, *[public.to_bytes() for public in publics])
        replies = await asyncio.gather(
            *[
                self._request(definition.client_name(i), K_ACC_REQUEST, body)
                for i in participants
            ]
        )
        submissions = [
            unpack_cipher_vector(definition.group, reply) for reply in replies
        ]
        result = run_message_shuffle(
            definition, privates, submissions, context=purpose, rng=self.rng
        )
        verdicts: list[TraceVerdict] = []
        for message in result.messages:
            if not message:
                continue
            try:
                accusation = Accusation.from_bytes(definition.group, message)
            except AccusationError:
                continue
            try:
                verdicts.extend(await self._trace_async(accusation))
            except (AccusationError, TraceInconclusive):
                continue
        for verdict in verdicts:
            if self.audit is not None:
                self.audit.append(
                    "blame",
                    culprit_kind=verdict.culprit_kind,
                    culprit=verdict.culprit_index,
                )
            if verdict.culprit_kind == "client":
                await self._expel_async(verdict.culprit_index)
                if self.audit is not None:
                    self.audit.append(
                        "expulsion",
                        client=verdict.culprit_index,
                        reason="blame verdict",
                    )
            else:
                self.convicted_servers.add(verdict.culprit_index)
        handled = bool(verdicts)
        outcome_body = pack_fields(1 if handled else 0)
        await asyncio.gather(
            *[
                self._request(definition.client_name(i), K_ACC_OUTCOME, outcome_body)
                for i in participants
            ]
        )
        return verdicts

    async def _trace_async(
        self, accusation: Accusation, verifier: int = 0
    ) -> list[TraceVerdict]:
        """Gather evidence and signed reveals over the wire, then trace.

        The trace itself (pure verification) runs on a worker thread; its
        rebuttal oracle performs live ``rebut-request`` round-trips back
        through the event loop — in a deployment that is exactly a network
        RPC to the client.
        """
        definition = self.definition
        group = definition.group
        r = accusation.round_number
        from repro.net.wire import decode_evidence

        evidence_blob = await self._request(
            definition.server_name(verifier), K_EVIDENCE_REQUEST, pack_fields(r)
        )
        evidence = decode_evidence(evidence_blob)
        disclosures = []
        reveal_body = pack_fields(r, accusation.bit_index)
        for j in range(definition.num_servers):
            reply = await self._request(
                definition.server_name(j), K_DISCLOSURE_REQUEST, reveal_body
            )
            envelope = decode_envelope(group, reply)
            # The reveal is signed: equivocation here is attributable.
            envelope.verify(definition.server_keys[j])
            if envelope.round_number != r:
                raise AccusationError(f"server {j} revealed the wrong round")
            bit_index, disclosure = decode_accusation_reveal_body(
                group, envelope.body
            )
            if bit_index != accusation.bit_index or disclosure.server_index != j:
                raise AccusationError(f"server {j} revealed the wrong position")
            disclosures.append(disclosure)
        slot_keys = [
            PublicKey(group, element) for element in self._slot_elements
        ]
        loop = asyncio.get_running_loop()

        def rebut(client_index: int, round_number: int, bit_index: int, claimed):
            request = self._request(
                definition.client_name(client_index),
                K_REBUT_REQUEST,
                pack_fields(
                    round_number, bit_index, encode_int_pairs(dict(claimed))
                ),
            )
            reply = asyncio.run_coroutine_threadsafe(request, loop).result(
                self.timeout
            )
            return decode_rebuttal(group, reply)

        return await loop.run_in_executor(
            None,
            lambda: trace_accusation(
                group,
                list(definition.client_keys),
                list(definition.server_keys),
                slot_keys,
                definition.group_id(),
                evidence,
                accusation,
                disclosures,
                rebut,
            ),
        )

    # ------------------------------------------------------------------
    # Membership management
    # ------------------------------------------------------------------

    def expel(self, client_index: int) -> None:
        """Expel a convicted disruptor from every server's roster."""
        self._ensure_started()
        self._call(self._expel_async(client_index))

    async def _expel_async(self, client_index: int) -> None:
        self.expelled.add(client_index)
        self.registry.counter("session.expulsions").inc()
        body = pack_fields(client_index)
        await asyncio.gather(
            *[
                self._request(name, K_EXPEL, body)
                for name in self._server_names()
            ]
        )

    # ------------------------------------------------------------------
    # Durable checkpoints and restart-from-checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self, path: str | os.PathLike) -> int:
        """Durably checkpoint the whole session at a round barrier.

        Captures the coordinator's view (records, membership, RNG, slot
        schedule) plus every node's phase-machine state (gathered over
        ``snapshot`` control frames), as one versioned, checksummed,
        atomically-replaced file.  Returns the bytes written.
        """
        self._ensure_started()
        return self._call(self._checkpoint_async(os.fspath(path)))

    async def _checkpoint_async(self, path: str) -> int:
        group = self.definition.group
        nodes = {}
        for name in self._node_names():
            blob = await self._request(name, K_SNAPSHOT, b"")
            nodes[name] = json.loads(blob.decode("utf-8"))
        payload = {
            "definition": self.definition.canonical_bytes().hex(),
            "mode": self.mode,
            "server_keys": [format(key.x, "x") for key in self._server_keys],
            "client_keys": [format(key.x, "x") for key in self._client_keys],
            "server_seeds": list(self._server_seeds),
            "client_seeds": list(self._client_seeds),
            "round_number": self.round_number,
            "records": [encode_record(group, record) for record in self.records],
            "expelled": sorted(self.expelled),
            "convicted_servers": sorted(self.convicted_servers),
            "equivocation_proofs": [
                encode_equivocation_proof(group, proof)
                for proof in self.equivocation_proofs
            ],
            "scheduled": self.scheduled,
            "slot_elements": [format(e, "x") for e in self._slot_elements],
            "rng_state": encode_rng_state(self.rng.getstate()),
            "nodes": nodes,
        }
        written = write_checkpoint(
            path, payload, kind="net-session", registry=self.registry
        )
        if self.audit is not None:
            self.audit.append(
                "checkpoint",
                path=path,
                round=self.round_number,
                bytes=written,
            )
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
        rng = random.Random()
        rng.setstate(decode_rng_state(payload["rng_state"]))
        session = cls(
            definition,
            server_keys,
            client_keys,
            rng,
            mode=mode if mode is not None else payload["mode"],
            server_seeds=payload["server_seeds"],
            client_seeds=payload["client_seeds"],
            timeout=timeout,
            telemetry=telemetry,
            faults=faults,
            checkpoint_dir=checkpoint_dir,
            audit_path=audit_path,
        )
        session.round_number = int(payload["round_number"])
        session.records = [
            decode_record(group, record) for record in payload["records"]
        ]
        session.expelled = set(payload["expelled"])
        session.convicted_servers = set(payload["convicted_servers"])
        session.equivocation_proofs = [
            decode_equivocation_proof(group, blob)
            for blob in payload.get("equivocation_proofs", ())
        ]
        session.scheduled = bool(payload["scheduled"])
        session._slot_elements = [int(value, 16) for value in payload["slot_elements"]]
        session._resume_payloads = dict(payload["nodes"])
        if session.audit is not None:
            session.audit.append(
                "resume", node=COORDINATOR, round=session.round_number
            )
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

    def metrics(self) -> dict:
        """Merged telemetry snapshot across the coordinator and all nodes.

        Each node (in-process or subprocess) ships its registry snapshot
        over a ``telemetry`` control message; counters and histogram
        buckets add, gauges keep their high-water mark.  With telemetry
        disabled this returns the coordinator's empty snapshot without
        touching the wire.
        """
        self._ensure_started()
        return self._call(self._metrics_async())

    async def _metrics_async(self) -> dict:
        merged = MetricsRegistry()
        merged.merge_snapshot(self.registry.snapshot())
        if self.telemetry:
            # Dark peers cannot answer (a dead process took its counters
            # with it); skip them instead of stalling the whole snapshot.
            live = [
                name
                for name in self._node_names()
                if self._hub is None or not self._hub.is_dark(name)
            ]
            replies = await asyncio.gather(
                *[self._request(name, K_TELEMETRY, b"") for name in live]
            )
            decoded = [decode_telemetry_body(reply) for reply in replies]
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
        self._ensure_started()
        return self._call(self._trace_events_async())

    async def _trace_events_async(self) -> list[dict]:
        events = [e.as_dict() for e in self.tracer.events]
        if self._trace_enabled:
            live = [
                name
                for name in self._node_names()
                if self._hub is None or not self._hub.is_dark(name)
            ]
            replies = await asyncio.gather(
                *[self._request(name, K_TRACE, b"") for name in live]
            )
            for reply in replies:
                events.extend(json.loads(reply.decode("utf-8")))
        return events

    def health(self) -> list[dict]:
        """One health snapshot per live node (servers and clients)."""
        self._ensure_started()
        return self._call(self._health_async())

    async def _health_async(self) -> list[dict]:
        live = [
            name
            for name in self._node_names()
            if self._hub is None or not self._hub.is_dark(name)
        ]
        replies = await asyncio.gather(
            *[self._request(name, K_HEALTH, b"") for name in live]
        )
        return [json.loads(reply.decode("utf-8")) for reply in replies]

    def flight_dumps(self) -> list[str]:
        """Current flight-recorder contents, coordinator first, as NDJSON."""
        self._ensure_started()
        return self._call(self._flight_dumps_async())

    async def _flight_dumps_async(self) -> list[str]:
        dumps = []
        if self.flight.enabled:
            dumps.append(self.flight.ndjson("manual"))
        live = [
            name
            for name in self._node_names()
            if self._hub is None or not self._hub.is_dark(name)
        ]
        replies = await asyncio.gather(
            *[self._request(name, K_FLIGHT, b"") for name in live]
        )
        dumps.extend(reply.decode("utf-8") for reply in replies)
        return dumps

    def post(self, client_index: int, message: bytes) -> None:
        """Queue an anonymous message from one client."""
        self._ensure_started()
        self._call(
            self._request(
                self.definition.client_name(client_index),
                K_POST,
                pack_fields(message),
            )
        )

    def delivered_messages(self, client_index: int = 0) -> list[tuple[int, int, bytes]]:
        """(round, slot, message) triples as observed by one client."""
        self._ensure_started()
        blob = self._call(
            self._request(
                self.definition.client_name(client_index),
                K_DELIVERED_REQUEST,
                pack_fields(0),
            )
        )
        if not blob:
            return []
        triples = []
        for item in unpack_fields(blob):
            round_number, slot, message = unpack_fields(item)
            triples.append((round_number, slot, message))
        return triples

    def _pending_traffic(self) -> bool:
        async def query() -> bool:
            replies = await asyncio.gather(
                *[
                    self._request(
                        self.definition.client_name(i), K_STATUS_REQUEST, b""
                    )
                    for i in range(self.definition.num_clients)
                    if i not in self.expelled
                ]
            )
            for reply in replies:
                pending, accusation = unpack_fields(reply)
                if pending or accusation:
                    return True
            return False

        return self._call(query())

    def run_until_quiet(self, max_rounds: int = 32) -> QuietOutcome:
        """Run rounds until no client has pending traffic."""
        for used in range(max_rounds):
            if not self._pending_traffic():
                return QuietOutcome(used, True)
            record = self.run_round()
            if record.shuffle_requested:
                self.run_accusation_phase()
        return QuietOutcome(max_rounds, not self._pending_traffic())
