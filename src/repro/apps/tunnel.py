"""SOCKS-like flow tunneling over Dissent (paper §4.1).

The paper's prototype exposes a SOCKS v5 proxy: an *entry* node accepts
application flows, tags each with a random identifier plus destination
header, and feeds it into the protocol round; a designated non-anonymous
*exit* node unwraps tunneled traffic, forwards it to the real destination,
and returns responses through the session — everyone sees the response
bytes, but only the flow's owner knows which flow is theirs.

Wire format of a tunneled record:

    flow_id (8) || direction (1) || kind (1) || dest_len (2) ||
    dest (dest_len) || payload

Directions: 0 = client→exit (upstream), 1 = exit→clients (downstream).
Kinds: 0 = OPEN (payload is the first request bytes), 1 = DATA,
2 = CLOSE.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.core.session import DissentSession
from repro.errors import ProtocolError

UPSTREAM = 0
DOWNSTREAM = 1

KIND_OPEN = 0
KIND_DATA = 1
KIND_CLOSE = 2

_HEADER_FIXED = 12


@dataclass(frozen=True)
class TunnelRecord:
    """One parsed tunnel record."""

    flow_id: bytes
    direction: int
    kind: int
    destination: str
    payload: bytes

    def encode(self) -> bytes:
        dest = self.destination.encode("utf-8")
        if len(dest) > 0xFFFF:
            raise ProtocolError("destination too long")
        return (
            self.flow_id
            + bytes([self.direction, self.kind])
            + len(dest).to_bytes(2, "big")
            + dest
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes) -> "TunnelRecord | None":
        if len(data) < _HEADER_FIXED:
            return None
        flow_id = data[:8]
        direction, kind = data[8], data[9]
        dest_len = int.from_bytes(data[10:12], "big")
        if len(data) < _HEADER_FIXED + dest_len:
            return None
        destination = data[12 : 12 + dest_len].decode("utf-8", errors="replace")
        return cls(flow_id, direction, kind, destination, data[12 + dest_len :])


#: An exit-side destination: request bytes in, response bytes out.
Destination = Callable[[bytes], bytes]


class TunnelEntry:
    """Client-side flow multiplexer (the SOCKS entry role)."""

    def __init__(self, session: DissentSession, client_index: int) -> None:
        self.session = session
        self.client_index = client_index
        self.rng = session.clients[client_index].rng
        self.flows: dict[bytes, list[bytes]] = {}
        self._responses_seen = 0

    def open_flow(self, destination: str, request: bytes) -> bytes:
        """Start a tunneled request; returns the flow id to await on."""
        flow_id = self.rng.randbytes(8)
        record = TunnelRecord(flow_id, UPSTREAM, KIND_OPEN, destination, request)
        self.session.post(self.client_index, record.encode())
        self.flows[flow_id] = []
        return flow_id

    def poll(self) -> None:
        """Collect downstream records addressed to our flows."""
        delivered = self.session.delivered
        fresh, self._responses_seen = delivered[self._responses_seen :], len(delivered)
        for _, _, message in fresh:
            record = TunnelRecord.decode(message)
            if record is None or record.direction != DOWNSTREAM:
                continue
            if record.flow_id in self.flows and record.kind == KIND_DATA:
                self.flows[record.flow_id].append(record.payload)

    def response(self, flow_id: bytes) -> bytes:
        """Response bytes received so far for one flow."""
        return b"".join(self.flows.get(flow_id, []))


class TunnelExit:
    """The non-anonymous exit node (paper: "a single SOCKS exit node").

    It participates in the session like any client but additionally reads
    every upstream record from the round output, resolves the destination,
    and queues the response back into its own slot.
    """

    def __init__(
        self,
        session: DissentSession,
        client_index: int,
        destinations: dict[str, Destination],
    ) -> None:
        self.session = session
        self.client_index = client_index
        self.destinations = dict(destinations)
        self.handled_flows: set[bytes] = set()
        self._seen = 0

    def pump(self) -> int:
        """Process newly delivered upstream records; returns count handled."""
        delivered = self.session.delivered
        fresh, self._seen = delivered[self._seen :], len(delivered)
        handled = 0
        for _, _, message in fresh:
            record = TunnelRecord.decode(message)
            if record is None or record.direction != UPSTREAM:
                continue
            if record.kind != KIND_OPEN or record.flow_id in self.handled_flows:
                continue
            destination = self.destinations.get(record.destination)
            if destination is None:
                response = b""
            else:
                response = destination(record.payload)
            reply = TunnelRecord(
                record.flow_id, DOWNSTREAM, KIND_DATA, record.destination, response
            )
            self.session.post(self.client_index, reply.encode())
            self.handled_flows.add(record.flow_id)
            handled += 1
        return handled


def fetch_through_tunnel(
    session: DissentSession,
    entry: TunnelEntry,
    exit_node: TunnelExit,
    destination: str,
    request: bytes,
    max_rounds: int = 24,
) -> bytes:
    """Round-trip one request anonymously; returns the response bytes."""
    flow_id = entry.open_flow(destination, request)
    for _ in range(max_rounds):
        session.run_round()
        exit_node.pump()
        entry.poll()
        response = entry.response(flow_id)
        if response:
            return response
    raise ProtocolError(f"no response after {max_rounds} rounds")
