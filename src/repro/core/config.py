"""Group definitions and protocol policy (paper §3.2, §3.7).

A Dissent group is defined by a static file listing one public key per
server and one per client, plus the policy constants the protocol needs
(the participation fraction alpha, window-closure parameters, slot sizing,
and the accusation shuffle-request width k).  The SHA-256 hash of the
canonical encoding is the group's **self-certifying identifier**: any two
nodes holding the same identifier necessarily agree on the member list and
policy, with no PKI or consensus protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.crypto.groups import (
    GROUP_FACTORIES,
    Group,
    resolve_group_name,
)
from repro.crypto.hashing import group_definition_id
from repro.crypto.keys import PublicKey
from repro.errors import ConfigError
from repro.util.serialization import canonical_json

#: Backend/group registry — one shared table in :mod:`repro.crypto.groups`;
#: this alias keeps the historic import path working for consumers that
#: resolve groups lazily (``verdict.session``, ``core.session``).
_GROUP_NAMES = GROUP_FACTORIES

#: Values ``Policy.group_backend`` accepts: any registered backend name,
#: or ``"auto"`` to defer to DISSENT_GROUP_BACKEND / the built-in default.
GROUP_BACKENDS = frozenset(GROUP_FACTORIES) | {"auto"}

#: DC-net operating modes a group policy may select (see Policy.dcnet_mode).
DCNET_MODES = frozenset({"xor", "verifiable", "hybrid"})


def upstream_server(client_index: int, num_servers: int) -> int:
    """The client → upstream-server assignment rule (round-robin).

    Kept as a module-level function so layers without a
    :class:`GroupDefinition` in hand (the timing simulator) share the
    exact topology the protocol uses; nodes with a definition should call
    :meth:`GroupDefinition.upstream_server`.
    """
    if num_servers < 1:
        raise ConfigError("need at least one server")
    return client_index % num_servers


@dataclass(frozen=True)
class Policy:
    """Tunable protocol constants, fixed at group creation time.

    Attributes:
        alpha: participation floor (§3.7).  Round r+1 will not complete
            until at least ``alpha * participation(r)`` clients submit.
        initial_slot_payload: payload capacity (bytes) a message slot gets
            when it first opens.
        max_slot_payload: upper clamp on requested slot lengths, bounding
            the damage of a corrupted length field.
        shuffle_request_bits: width k of the per-slot shuffle-request field;
            a disruptor squashes an accusation request with probability
            ``2**-k`` per round (§3.9).
        idle_close_rounds: close an open slot after this many consecutive
            all-zero (silent) rounds, reclaiming bandwidth from departed
            owners.
        window_fraction / window_multiplier: default window-closure policy —
            once ``window_fraction`` of clients submit at elapsed time t,
            close the window at ``t * window_multiplier`` (§5.1, the 1.1x
            policy chosen in the paper).
        hard_deadline: seconds after which a round closes regardless (120 s
            in the paper's trace experiment).
        shuffle_soundness_bits: cut-and-choose soundness for the verifiable
            shuffle.
        archive_rounds: how many past rounds servers retain for accusation
            tracing.
        dcnet_mode: which DC-net pipeline the group runs (Verdict's three
            operating points).  ``"xor"`` is the paper's fast reactive
            pipeline; ``"verifiable"`` proves every ciphertext well-formed
            before combining (disruptors named in-round); ``"hybrid"`` runs
            the XOR fast path and retroactively replays corrupted rounds in
            verifiable mode, skipping the accusation shuffle.
        group_backend: which crypto group backend the group runs on
            (``"modp1536"``, ``"modp2048"``, ``"ec25519"``, a test group,
            or ``"auto"`` to defer to the session builder / the
            ``DISSENT_GROUP_BACKEND`` environment variable).  When set to
            a concrete backend it must agree with the definition's
            ``group_name`` — mixed selections fail at construction, and
            the name travels in the wire hello so mismatched *nodes* fail
            fast too.
        reconnect_attempts: dials a disconnected node makes before giving
            up on its hub (capped exponential backoff between attempts).
            The sum of the backoff delays is the coordinator's *retry
            budget*: a client dark for longer is expelled at the next
            round barrier instead of stalling the group (§3.7).
        reconnect_base_delay / reconnect_max_delay: backoff shape in
            seconds (first step, and the per-step ceiling).
        peer_outbox_frames: how many sent frames the hub retains per peer
            for reconnect replay; a node that falls further behind than
            this must restart from a checkpoint instead of resuming.
        barrier_timeout: seconds the coordinator waits on a collective
            round barrier, and the ceiling on a server's consensus view
            timer (the effective timer is ``min(retry budget,
            barrier_timeout)``, so tightening the reconnect knobs
            tightens view changes too).  Replaces the old hardcoded
            coordinator wait.
        trace_sampling: whether nodes propagate and record distributed
            round traces when telemetry is on.  Observability metadata
            only — protocol bytes are identical either way; turning it
            off drops the trace-context frame field and the per-node
            span log, leaving just aggregate metrics.
        flight_recorder_events: ring capacity of each node's flight
            recorder (last-N spans/events dumped on failure triggers);
            0 disables the recorder.
        health_port: base TCP port for the per-server status endpoint
            (``/metrics`` OpenMetrics, ``/healthz`` JSON); server *i*
            listens on ``health_port + i``.  0 (the default) disables
            the endpoint.
    """

    alpha: float = 0.9
    initial_slot_payload: int = 128
    max_slot_payload: int = 1 << 20
    shuffle_request_bits: int = 8
    idle_close_rounds: int = 4
    window_fraction: float = 0.95
    window_multiplier: float = 1.1
    hard_deadline: float = 120.0
    shuffle_soundness_bits: int = 16
    archive_rounds: int = 8
    dcnet_mode: str = "xor"
    group_backend: str = "auto"
    reconnect_attempts: int = 8
    reconnect_base_delay: float = 0.05
    reconnect_max_delay: float = 2.0
    peer_outbox_frames: int = 512
    barrier_timeout: float = 120.0
    trace_sampling: bool = True
    flight_recorder_events: int = 256
    health_port: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.initial_slot_payload < 1:
            raise ConfigError("initial_slot_payload must be positive")
        if self.max_slot_payload < self.initial_slot_payload:
            raise ConfigError("max_slot_payload must be >= initial_slot_payload")
        if not 1 <= self.shuffle_request_bits <= 8:
            raise ConfigError("shuffle_request_bits must be in [1, 8]")
        if self.idle_close_rounds < 1:
            raise ConfigError("idle_close_rounds must be positive")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ConfigError("window_fraction must be in (0, 1]")
        if self.window_multiplier < 1.0:
            raise ConfigError("window_multiplier must be >= 1")
        if self.hard_deadline <= 0:
            raise ConfigError("hard_deadline must be positive")
        if self.shuffle_soundness_bits < 1:
            raise ConfigError("shuffle_soundness_bits must be positive")
        if self.archive_rounds < 1:
            raise ConfigError("archive_rounds must be positive")
        if self.dcnet_mode not in DCNET_MODES:
            raise ConfigError(
                f"dcnet_mode must be one of {sorted(DCNET_MODES)}, "
                f"got {self.dcnet_mode!r}"
            )
        if self.group_backend not in GROUP_BACKENDS:
            raise ConfigError(
                f"group_backend must be one of {sorted(GROUP_BACKENDS)}, "
                f"got {self.group_backend!r}"
            )
        if self.reconnect_attempts < 1:
            raise ConfigError("reconnect_attempts must be positive")
        if self.reconnect_base_delay < 0 or self.reconnect_max_delay < 0:
            raise ConfigError("reconnect delays must be non-negative")
        if self.peer_outbox_frames < 1:
            raise ConfigError("peer_outbox_frames must be positive")
        if self.barrier_timeout <= 0:
            raise ConfigError("barrier_timeout must be positive")
        if not isinstance(self.trace_sampling, bool):
            raise ConfigError("trace_sampling must be a bool")
        if self.flight_recorder_events < 0:
            raise ConfigError("flight_recorder_events must be >= 0")
        if not 0 <= self.health_port <= 65535:
            raise ConfigError("health_port must be in [0, 65535]")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "initial_slot_payload": self.initial_slot_payload,
            "max_slot_payload": self.max_slot_payload,
            "shuffle_request_bits": self.shuffle_request_bits,
            "idle_close_rounds": self.idle_close_rounds,
            "window_fraction": self.window_fraction,
            "window_multiplier": self.window_multiplier,
            "hard_deadline": self.hard_deadline,
            "shuffle_soundness_bits": self.shuffle_soundness_bits,
            "archive_rounds": self.archive_rounds,
            "dcnet_mode": self.dcnet_mode,
            "group_backend": self.group_backend,
            "reconnect_attempts": self.reconnect_attempts,
            "reconnect_base_delay": self.reconnect_base_delay,
            "reconnect_max_delay": self.reconnect_max_delay,
            "peer_outbox_frames": self.peer_outbox_frames,
            "barrier_timeout": self.barrier_timeout,
            "trace_sampling": self.trace_sampling,
            "flight_recorder_events": self.flight_recorder_events,
            "health_port": self.health_port,
        }

    def retry_policy(self, seed: int = 0):
        """The :class:`repro.net.transport.RetryPolicy` these knobs select."""
        from repro.net.transport import RetryPolicy

        return RetryPolicy(
            max_attempts=self.reconnect_attempts,
            base_delay=self.reconnect_base_delay,
            max_delay=self.reconnect_max_delay,
            seed=seed,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "Policy":
        return cls(**data)


@dataclass(frozen=True)
class GroupDefinition:
    """The static membership and policy record every node holds.

    Server and client identities within the protocol are their indices
    into these lists; display names are derived (``server-3``,
    ``client-17``) for logs and message routing.
    """

    group_name: str
    server_keys: tuple[PublicKey, ...]
    client_keys: tuple[PublicKey, ...]
    policy: Policy = field(default_factory=Policy)

    def __post_init__(self) -> None:
        if self.group_name not in _GROUP_NAMES:
            raise ConfigError(
                f"unknown group {self.group_name!r}; "
                f"choose one of {sorted(_GROUP_NAMES)}"
            )
        if not self.server_keys:
            raise ConfigError("a group needs at least one server")
        if not self.client_keys:
            raise ConfigError("a group needs at least one client")
        group = self.group
        backend = self.policy.group_backend
        if backend != "auto" and _GROUP_NAMES[backend]() is not group:
            raise ConfigError(
                f"policy selects backend {backend!r} but the definition "
                f"names group {self.group_name!r} ({group.name})"
            )
        for key in (*self.server_keys, *self.client_keys):
            if key.group != group:
                raise ConfigError("all member keys must use the group's algebra")
        seen: set[int] = set()
        for key in (*self.server_keys, *self.client_keys):
            if key.y in seen:
                raise ConfigError("duplicate public key in group definition")
            seen.add(key.y)

    @property
    def group(self) -> Group:
        return _GROUP_NAMES[self.group_name]()

    @property
    def num_servers(self) -> int:
        return len(self.server_keys)

    @property
    def num_clients(self) -> int:
        return len(self.client_keys)

    def upstream_server(self, client_index: int) -> int:
        """Which server a client submits its ciphertexts to.

        The single source of truth for the client → upstream-server
        topology: the real session driver, the pipelined engine, hybrid
        pad commitments/replays, and the timing simulator all route
        through here (or :func:`upstream_server` where no definition
        exists), so an alternative assignment changes every layer at once
        instead of skewing them silently.
        """
        if not 0 <= client_index < self.num_clients:
            raise ConfigError(f"client index {client_index} out of range")
        return upstream_server(client_index, self.num_servers)

    def server_name(self, index: int) -> str:
        if not 0 <= index < self.num_servers:
            raise ConfigError(f"server index {index} out of range")
        return f"server-{index}"

    def server_index_of(self, sender: str) -> int:
        """Invert :meth:`server_name`; the one parser every layer shares."""
        if not sender.startswith("server-"):
            raise ConfigError(f"not a server name: {sender!r}")
        try:
            index = int(sender.split("-", 1)[1])
        except ValueError:
            raise ConfigError(f"not a server name: {sender!r}") from None
        if not 0 <= index < self.num_servers:
            raise ConfigError(f"server index {index} out of range")
        return index

    def client_name(self, index: int) -> str:
        if not 0 <= index < self.num_clients:
            raise ConfigError(f"client index {index} out of range")
        return f"client-{index}"

    def canonical_bytes(self) -> bytes:
        """Deterministic encoding whose hash is the group identifier."""
        return canonical_json(
            {
                "version": 1,
                "group": self.group_name,
                "servers": [key.to_bytes().hex() for key in self.server_keys],
                "clients": [key.to_bytes().hex() for key in self.client_keys],
                "policy": self.policy.to_dict(),
            }
        )

    def group_id(self) -> bytes:
        """Self-certifying identifier: hash of the canonical definition.

        Computed once per object: the definition is frozen, so the id is a
        pure function of its fields.  It is kept in the instance
        ``__dict__`` — not a dataclass field, so it stays out of ``==``,
        ``hash``, ``repr`` and the codecs, and ``dataclasses.replace``
        builds an object without it.
        """
        group_id = self.__dict__.get("_group_id")
        if group_id is None:
            group_id = self.__dict__["_group_id"] = group_definition_id(
                self.canonical_bytes()
            )
        return group_id

    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "GroupDefinition":
        """Parse a definition file, validating every key."""
        import json

        try:
            obj = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unparseable group definition: {exc}") from exc
        if obj.get("version") != 1:
            raise ConfigError("unsupported group definition version")
        group_name = obj["group"]
        if group_name not in _GROUP_NAMES:
            raise ConfigError(f"unknown group {group_name!r}")
        group = _GROUP_NAMES[group_name]()
        servers = tuple(
            PublicKey.from_bytes(group, bytes.fromhex(h)) for h in obj["servers"]
        )
        clients = tuple(
            PublicKey.from_bytes(group, bytes.fromhex(h)) for h in obj["clients"]
        )
        return cls(group_name, servers, clients, Policy.from_dict(obj["policy"]))


def make_group_definition(
    group_name: str,
    server_keys: Sequence[PublicKey],
    client_keys: Sequence[PublicKey],
    policy: Policy | None = None,
) -> GroupDefinition:
    """Convenience constructor mirroring the paper's group-creation flow."""
    return GroupDefinition(
        group_name,
        tuple(server_keys),
        tuple(client_keys),
        policy or Policy(),
    )
