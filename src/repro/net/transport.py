"""Duplex frame transports: asyncio TCP and a deterministic loopback.

A :class:`Transport` moves whole frames (see :mod:`repro.net.wire`) in
both directions.  Two implementations:

* :class:`TcpTransport` — real sockets via asyncio streams, used by the
  localhost demos, the multi-process runner, and any future multi-machine
  deployment.
* :class:`LoopbackTransport` — an in-memory pair for tests and
  single-process sessions.

Delivery pathologies come from one place: :class:`FaultyTransport` wraps
any transport and applies a deterministic :class:`FaultSchedule` —
per-frame latency, index-based drops, duplicates, connection kills and
adjacent-frame reordering — to its send side.  A session's hub wraps a
node's link in it (``NetworkedSession(faults=...)``), so the same
schedule reproduces the same pathology in loopback, TCP and subprocess
runs.

:class:`RetryPolicy` gives dialers a capped exponential backoff with
*deterministic* jitter (hash-derived, no global RNG) so reconnect timing
is reproducible in tests.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ConnectionClosed, FrameTooLarge, FrameTruncated, PeerUnreachable
from repro.net.wire import MAX_FRAME_BYTES, encode_frame_prefix

_LEN_BYTES = 4

#: Payloads at least this long are written after their length prefix
#: instead of concatenated with it: the join would copy a 500 KiB bulk
#: frame once more just to add four bytes.  Below it one write (one
#: syscall, one TCP segment) is cheaper than the copy it saves.
_SPLIT_WRITE_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# Retry policy (capped exponential backoff, deterministic jitter)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for re-dialing a dark peer.

    ``delay(attempt)`` is ``base_delay * 2**attempt`` capped at
    ``max_delay``, then scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` derived from a hash of ``(seed,
    attempt)`` — fully deterministic, so chaos tests replay identically.

    Attributes:
        max_attempts: dial attempts before the peer is declared dark.
        base_delay: first backoff step in seconds.
        max_delay: ceiling on any single backoff step.
        jitter: fractional jitter amplitude (0 disables it).
        seed: namespace for the deterministic jitter stream.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.base_delay * (2**attempt), self.max_delay)
        if not self.jitter:
            return raw
        digest = hashlib.sha256(f"retry|{self.seed}|{attempt}".encode()).digest()
        frac = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return raw * (1.0 + self.jitter * (2.0 * frac - 1.0))

    def budget(self) -> float:
        """Total seconds of backoff a full retry sequence can spend."""
        return sum(self.delay(i) for i in range(self.max_attempts))


class Transport:
    """Abstract duplex frame channel."""

    async def send(self, payload: bytes) -> None:
        """Transmit one frame payload."""
        raise NotImplementedError

    async def recv(self) -> bytes:
        """Receive the next frame payload.

        Raises:
            ConnectionClosed: the peer closed cleanly between frames.
            FrameTruncated: the stream ended mid-frame.
            FrameTooLarge: the peer announced a frame over the cap.
        """
        raise NotImplementedError

    async def aclose(self) -> None:
        """Close the channel; pending :meth:`recv` calls unblock."""
        raise NotImplementedError

    @property
    def peername(self) -> str:
        return "?"


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


class TcpTransport(Transport):
    """Frames over an asyncio TCP stream pair."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.max_frame_bytes = max_frame_bytes
        self._closed = False

    async def send(self, payload: bytes) -> None:
        if self._closed:
            raise ConnectionClosed("transport is closed")
        prefix = encode_frame_prefix(len(payload), self.max_frame_bytes)
        if len(payload) >= _SPLIT_WRITE_BYTES:
            self.writer.write(prefix)
            self.writer.write(payload)
        else:
            self.writer.write(prefix + payload)
        await self.writer.drain()

    async def recv(self) -> bytes:
        try:
            header = await self.reader.readexactly(_LEN_BYTES)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise FrameTruncated(
                    f"stream ended {len(exc.partial)} bytes into a length prefix"
                ) from exc
            raise ConnectionClosed("peer closed the connection") from exc
        n = int.from_bytes(header, "big")
        if n > self.max_frame_bytes:
            # Tear the connection down: after an oversized announcement the
            # stream position is unrecoverable.
            await self.aclose()
            raise FrameTooLarge(
                f"peer announced a {n}-byte frame (cap is {self.max_frame_bytes})"
            )
        try:
            return await self.reader.readexactly(n)
        except asyncio.IncompleteReadError as exc:
            raise FrameTruncated(
                f"stream ended {len(exc.partial)} of {n} bytes into a frame"
            ) from exc

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    @property
    def peername(self) -> str:
        try:
            peer = self.writer.get_extra_info("peername")
        except Exception:
            peer = None
        return f"{peer[0]}:{peer[1]}" if peer else "tcp:?"


async def connect_tcp(
    host: str,
    port: int,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    retry: RetryPolicy | None = None,
) -> Transport:
    """Dial a node/hub listener and wrap the stream in a transport.

    With ``retry``, refused/failed dials back off per the policy and the
    final failure is a typed :class:`PeerUnreachable` (carrying the
    ``host:port`` peer and the spent budget).  Without it the first
    ``OSError`` propagates unchanged, preserving one-shot semantics.
    """
    attempts = retry.max_attempts if retry is not None else 1
    last_error: OSError | None = None
    for attempt in range(attempts):
        if attempt and retry is not None:
            await asyncio.sleep(retry.delay(attempt - 1))
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            if retry is None:
                raise
            last_error = exc
            continue
        return TcpTransport(reader, writer, max_frame_bytes)
    raise PeerUnreachable(
        f"could not connect to {host}:{port} after {attempts} attempts: {last_error}",
        peer=f"{host}:{port}",
        kind="connect",
        deadline=retry.budget() if retry is not None else None,
    )


async def serve_tcp(
    handler,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> tuple[asyncio.AbstractServer, int]:
    """Listen for transports; ``handler(transport)`` runs per connection.

    Returns the server object and the bound port (useful with port 0).
    """

    async def on_connection(reader, writer):
        await handler(TcpTransport(reader, writer, max_frame_bytes))

    server = await asyncio.start_server(on_connection, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    return server, bound_port


# ---------------------------------------------------------------------------
# In-memory loopback
# ---------------------------------------------------------------------------


class _LoopbackEnd:
    """One direction of a loopback pair (internal)."""

    def __init__(self, max_frame_bytes: int) -> None:
        self.max_frame_bytes = max_frame_bytes
        self.queue: asyncio.Queue = asyncio.Queue()
        self.closed = False

    def push(self, payload: bytes) -> None:
        if len(payload) > self.max_frame_bytes:
            raise FrameTooLarge(
                f"frame of {len(payload)} bytes exceeds the "
                f"{self.max_frame_bytes}-byte cap"
            )
        self.queue.put_nowait(payload)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.queue.put_nowait(None)  # EOF sentinel


class LoopbackTransport(Transport):
    """One side of an in-memory transport pair (see :func:`loopback_pair`)."""

    def __init__(self, outgoing: _LoopbackEnd, incoming: _LoopbackEnd, name: str) -> None:
        self._outgoing = outgoing
        self._incoming = incoming
        self._name = name

    async def send(self, payload: bytes) -> None:
        if self._outgoing.closed:
            raise ConnectionClosed("transport is closed")
        self._outgoing.push(payload)

    async def recv(self) -> bytes:
        payload = await self._incoming.queue.get()
        if payload is None:
            self._incoming.queue.put_nowait(None)  # keep EOF sticky
            raise ConnectionClosed("peer closed the loopback")
        return payload

    async def aclose(self) -> None:
        self._outgoing.close()
        self._incoming.close()

    @property
    def peername(self) -> str:
        return self._name


def loopback_pair(
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> tuple[LoopbackTransport, LoopbackTransport]:
    """An in-memory duplex pair; frames arrive in send order."""
    forward = _LoopbackEnd(max_frame_bytes)
    backward = _LoopbackEnd(max_frame_bytes)
    return (
        LoopbackTransport(forward, backward, "loopback-a"),
        LoopbackTransport(backward, forward, "loopback-b"),
    )


# ---------------------------------------------------------------------------
# Deterministic fault injection for any transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSchedule:
    """Deterministic delivery pathologies for one send direction.

    Attributes:
        latency: seconds every frame waits before delivery (event-loop
            time; 0 delivers immediately in send order).
        drop: send indices (0-based) that are silently discarded — the
            receiver never sees them.
        swap: send indices ``i`` delivered *after* frame ``i+1`` (adjacent
            reorder).  If frame ``i+1`` never comes, the held frame flushes
            at close so reordering cannot deadlock a stream.
        extra_delay: per-send-index additional latency seconds.
        dup: send indices delivered twice back to back (receivers must be
            idempotent — signed envelopes are).
        kill: send indices at which the connection dies: the frame is
            lost and the transport closes, as if the TCP session was cut
            mid-round.  Recovery is the reconnect/replay layer's job.
    """

    latency: float = 0.0
    drop: frozenset[int] = frozenset()
    swap: frozenset[int] = frozenset()
    extra_delay: Mapping[int, float] = field(default_factory=dict)
    dup: frozenset[int] = frozenset()
    kill: frozenset[int] = frozenset()


class FaultyTransport(Transport):
    """Apply a :class:`FaultSchedule` to the send side of any transport.

    Drops, duplicates, adjacent reordering, per-index delays and
    mid-stream connection kills are all keyed on the 0-based send index,
    so runs replay identically whatever the transport underneath.
    ``recv`` passes through.
    """

    def __init__(self, inner: Transport, faults: FaultSchedule) -> None:
        self.inner = inner
        self.faults = faults
        self.sent = 0
        self._held: bytes | None = None

    async def send(self, payload: bytes) -> None:
        index = self.sent
        self.sent += 1
        if index in self.faults.kill:
            await self.aclose()
            raise ConnectionClosed(f"fault schedule killed the link at frame {index}")
        if index in self.faults.drop:
            return
        delay = self.faults.latency + self.faults.extra_delay.get(index, 0.0)
        if delay:
            await asyncio.sleep(delay)
        if index in self.faults.swap:
            if self._held is not None:
                await self.inner.send(self._held)
            self._held = payload
            return
        await self.inner.send(payload)
        if index in self.faults.dup:
            await self.inner.send(payload)
        if self._held is not None:
            held, self._held = self._held, None
            await self.inner.send(held)

    async def recv(self) -> bytes:
        return await self.inner.recv()

    async def aclose(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            try:
                await self.inner.send(held)
            except (ConnectionClosed, OSError):
                pass
        await self.inner.aclose()

    @property
    def peername(self) -> str:
        return self.inner.peername
