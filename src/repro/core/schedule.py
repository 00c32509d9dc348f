"""Slot scheduling: the function S(r, pi(i), H) of Algorithm 1.

After the key shuffle fixes a secret permutation of clients onto slots,
every round's bit-vector layout is a *deterministic function of the round
history* that all nodes compute identically:

    [ request-bit region: one bit per slot, padded to a byte boundary ]
    [ slot 0 bytes ][ slot 1 bytes ] ... [ slot N-1 bytes ]

Each slot is either **closed** (0 bytes; only its request bit exists) or
**open** with a current payload capacity.  An open slot on the wire is:

    [ 2-byte length field ][ 1-byte shuffle-request field ][ padded payload ]

* The length field requests the next round's payload capacity (0 closes
  the slot); it is clamped by policy so a disruptor cannot explode round
  sizes by flipping high bits.
* The shuffle-request field (k low bits used) is the accusation trigger of
  §3.9: any nonzero value asks the servers to run an accusation shuffle.
* The padded payload is the OAEP-like encoding from
  :mod:`repro.crypto.padding`, which makes every payload bit unpredictable
  and lets the slot owner detect disruption.

Layout evolution rules (applied by every node to the round output):

* closed slot, request bit 1  → open at ``initial_slot_payload``.
* open slot, all-zero content → owner silent; after ``idle_close_rounds``
  consecutive silent rounds the slot closes.
* open slot, decodable        → next capacity = clamp(length field);
  0 closes the slot.
* open slot, corrupted        → capacity unchanged (disruption must not
  wedge scheduling; the accusation mechanism handles the disruptor).

**Each distinct step is computed once per process.**  A step is a pure
function of ``(slot count, policy, per-slot (capacity, idle rounds),
cleartext)`` and all N + M nodes take the same one each round: side by
side on N + M machines when deployed, but one after another in a process
that hosts them all (every test, example and benchmark workload here),
each unmasking every open slot's padding — a SHAKE-256 pad, an XOR and a
SHA-256 check.  :meth:`Scheduler.advance` keeps a bounded memo keyed by
those exact inputs (no digest of them) and valued by the frozen
:class:`SlotContent` tuple and the next states — the rules
:mod:`repro.crypto.schnorr` follows for accepted signatures.  Each node
still hands in its own states and cleartext, gets a fresh list and sets
its own states, so a node in another state (a client catching up after
resume) takes its own step; a step that raises records nothing.
:func:`forget_steps` empties the memo and
:func:`repro.core.session.build_keys` calls it for every new group; with
one node per process (``mode="subprocess"``) it never answers.
Footprint: :data:`STEP_MEMO_ENTRIES` entries, each the cleartext (usually
the object a server archives anyway) plus its open slots' raw bytes and
payloads — about 1 MiB at 16 bulk slots of 32 KB, a few KiB for microblog.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.config import Policy
from repro.crypto import padding
from repro.errors import PaddingError, ProtocolError
from repro.obs import metrics as _metrics
from repro.util.bytesops import get_bit

#: Wire overhead of an open slot before the padded payload.
SLOT_HEADER_BYTES = 3
LENGTH_FIELD_BYTES = 2

#: Completed steps the process remembers, oldest evicted first.  Nodes
#: step rounds in order, so one entry answers a lockstep round; four cover
#: a default pipeline window and a scheduler that lags a few rounds.
STEP_MEMO_ENTRIES = 4

#: Total wire bytes for an open slot with payload capacity L.
def open_slot_bytes(payload_capacity: int) -> int:
    """Wire footprint of an open slot: header + padding overhead + payload."""
    if payload_capacity <= 0:
        raise ValueError("open slots must have positive capacity")
    return SLOT_HEADER_BYTES + padding.OVERHEAD + payload_capacity


@dataclass(frozen=True)
class SlotContent:
    """Decoded view of one open slot in a round's cleartext output."""

    slot_index: int
    raw: bytes
    is_silent: bool
    is_corrupted: bool
    requested_length: int | None
    shuffle_request: int
    payload: bytes | None


#: Per-slot ``(capacity, idle_rounds)`` (capacity 0 = closed): the state a
#: step reads and writes, immutable so schedulers can share it.
SlotStates = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RoundLayout:
    """The byte/bit map of one DC-net round, identical on every node.

    Every slot's byte range and the total are laid out once, at
    construction, so a step that reads all N slots is O(N), not O(N²).
    """

    num_slots: int
    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.capacities) != self.num_slots:
            raise ProtocolError("capacity list does not match slot count")
        offset = self.request_region_bytes
        ranges = []
        for cap in self.capacities:
            start = offset
            if cap:
                offset += open_slot_bytes(cap)
            ranges.append((start, offset))
        object.__setattr__(self, "_ranges", tuple(ranges))
        object.__setattr__(self, "_total", offset)

    @property
    def request_region_bytes(self) -> int:
        return (self.num_slots + 7) // 8

    @property
    def total_bytes(self) -> int:
        return self._total

    def request_bit_index(self, slot: int) -> int:
        """Absolute bit index of a slot's request bit."""
        self._check_slot(slot)
        return slot

    def is_open(self, slot: int) -> bool:
        self._check_slot(slot)
        return self.capacities[slot] > 0

    def slot_byte_range(self, slot: int) -> tuple[int, int]:
        """[start, end) byte offsets of an open slot within the round."""
        self._check_slot(slot)
        if not self.capacities[slot]:
            raise ProtocolError(f"slot {slot} is closed this round")
        return self._ranges[slot]

    def slot_bit_range(self, slot: int) -> tuple[int, int]:
        """[start, end) absolute bit offsets of an open slot."""
        start, end = self.slot_byte_range(slot)
        return 8 * start, 8 * end

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ProtocolError(f"slot {slot} out of range (N={self.num_slots})")


def encode_slot(
    layout: RoundLayout,
    policy: Policy,
    slot: int,
    payload: bytes,
    requested_length: int | None = None,
    shuffle_request: int = 0,
    pad_seed: bytes | None = None,
) -> bytes:
    """Build an open slot's wire bytes for its owner.

    Args:
        payload: message bytes; padded/truncated checks are the caller's
            job — must fit the slot's capacity exactly or be shorter (it is
            zero-extended to capacity before masking, so receivers always
            decode a fixed-size payload whose tail is zeros).
        requested_length: next-round capacity wish; None keeps the current
            capacity, 0 closes the slot.
        shuffle_request: k-bit accusation trigger value.
    """
    capacity = layout.capacities[slot]
    if capacity == 0:
        raise ProtocolError(f"slot {slot} is closed; cannot encode content")
    if len(payload) > capacity:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds slot capacity {capacity}"
        )
    if requested_length is None:
        requested_length = capacity
    if not 0 <= requested_length < (1 << (8 * LENGTH_FIELD_BYTES)):
        raise ProtocolError(f"requested length {requested_length} unencodable")
    mask = (1 << policy.shuffle_request_bits) - 1
    if shuffle_request != (shuffle_request & mask):
        raise ProtocolError(
            f"shuffle request {shuffle_request} exceeds {policy.shuffle_request_bits} bits"
        )
    header = requested_length.to_bytes(LENGTH_FIELD_BYTES, "big") + bytes(
        [shuffle_request]
    )
    body = padding.encode(payload.ljust(capacity, b"\x00"), seed=pad_seed)
    return header + body


def decode_slot(
    layout: RoundLayout, policy: Policy, slot: int, cleartext: bytes
) -> SlotContent:
    """Parse one open slot out of a round's cleartext output.

    Never raises on corruption: disrupted slots come back with
    ``is_corrupted=True`` so scheduling can continue deterministically.
    Only a :class:`PaddingError` means corruption; anything else
    ``padding.decode`` raises is a bug and propagates (a step that
    raises is never remembered, so no node is handed its answer).
    """
    start, end = layout.slot_byte_range(slot)
    raw = cleartext[start:end]
    if len(raw) != end - start:
        raise ProtocolError("cleartext shorter than layout demands")
    if raw == bytes(len(raw)):
        return SlotContent(
            slot_index=slot,
            raw=raw,
            is_silent=True,
            is_corrupted=False,
            requested_length=None,
            shuffle_request=0,
            payload=None,
        )
    requested = int.from_bytes(raw[:LENGTH_FIELD_BYTES], "big")
    shuffle_request = raw[LENGTH_FIELD_BYTES] & (
        (1 << policy.shuffle_request_bits) - 1
    )
    body = raw[SLOT_HEADER_BYTES:]
    try:
        payload = padding.decode(body)
    except PaddingError:
        return SlotContent(
            slot_index=slot,
            raw=raw,
            is_silent=False,
            is_corrupted=True,
            requested_length=None,
            shuffle_request=shuffle_request,
            payload=None,
        )
    return SlotContent(
        slot_index=slot,
        raw=raw,
        is_silent=False,
        is_corrupted=False,
        requested_length=requested,
        shuffle_request=shuffle_request,
        payload=payload,
    )


def _step(
    num_slots: int, policy: Policy, states: SlotStates, cleartext: bytes
) -> tuple[tuple[SlotContent, ...], SlotStates]:
    """One schedule step: the open slots' contents and the next states."""
    layout = RoundLayout(num_slots, tuple(capacity for capacity, _ in states))
    if len(cleartext) != layout.total_bytes:
        raise ProtocolError(
            f"round output is {len(cleartext)} bytes; layout expects "
            f"{layout.total_bytes}"
        )
    contents: list[SlotContent] = []
    next_states: list[tuple[int, int]] = []
    for slot, (capacity, idle_rounds) in enumerate(states):
        if capacity == 0:
            if get_bit(cleartext, layout.request_bit_index(slot)):
                capacity, idle_rounds = policy.initial_slot_payload, 0
        else:
            content = decode_slot(layout, policy, slot, cleartext)
            contents.append(content)
            if content.is_silent:
                idle_rounds += 1
                if idle_rounds >= policy.idle_close_rounds:
                    capacity, idle_rounds = 0, 0
            elif content.is_corrupted:
                idle_rounds = 0
            else:
                idle_rounds = 0
                capacity = min(content.requested_length, policy.max_slot_payload)
        next_states.append((capacity, idle_rounds))
    return tuple(contents), tuple(next_states)


# ---------------------------------------------------------------------------
# The step memo: one schedule step per distinct round output per process
# ---------------------------------------------------------------------------

_steps: OrderedDict[tuple, tuple[tuple[SlotContent, ...], SlotStates]] = OrderedDict()
_steps_lock = threading.Lock()


def forget_steps() -> None:
    """Empty the memo: every step is computed afresh from here on.

    :func:`repro.core.session.build_keys` calls this for every group it
    makes, beside :func:`repro.crypto.schnorr.forget_accepted`: a second
    session built from the same seed would otherwise find its rounds'
    steps already taken.
    """
    with _steps_lock:
        _steps.clear()


def _count(name: str) -> None:
    if _metrics.GLOBAL.enabled:
        _metrics.GLOBAL.counter(f"core.schedule.{name}").inc()


@dataclass
class Scheduler:
    """The shared layout state machine every node advances in lockstep.

    One instance per node; all instances fed the same round outputs stay
    byte-identical — tests assert this property directly.
    """

    num_slots: int
    policy: Policy
    _states: SlotStates = field(init=False)
    round_number: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ProtocolError("scheduler needs at least one slot")
        self._states = ((0, 0),) * self.num_slots

    def current_layout(self) -> RoundLayout:
        return RoundLayout(
            self.num_slots, tuple(capacity for capacity, _ in self._states)
        )

    def clone(self) -> "Scheduler":
        """Independent copy of the scheduling state (pipeline snapshots).

        Much cheaper than ``copy.deepcopy``: the policy is frozen and the
        per-slot states are an immutable tuple, shared rather than copied.
        """
        dup = Scheduler(self.num_slots, self.policy)
        dup._states = self._states
        dup.round_number = self.round_number
        return dup

    def slot_capacity(self, slot: int) -> int:
        return self._states[slot][0]

    def advance(self, cleartext: bytes) -> list[SlotContent]:
        """Digest a round's output and evolve every slot's state.

        Returns the decoded slot contents (for app delivery) in slot order;
        closed slots are omitted.  A step another scheduler in this
        process already took from the same states and cleartext is read
        from the memo (see the module docstring) instead of recomputed.
        """
        cleartext = bytes(cleartext)
        memo_key = (self.num_slots, self.policy, self._states, cleartext)
        step = _steps.get(memo_key)
        if step is None:
            step = _step(self.num_slots, self.policy, self._states, cleartext)
            _count("steps")
            # Insert-then-evict is compound and two threads step (the tcp
            # session's caller and its loop); lookups are single dict reads.
            with _steps_lock:
                _steps[memo_key] = step
                while len(_steps) > STEP_MEMO_ENTRIES:
                    _steps.popitem(last=False)
        else:
            _count("step_hits")
        contents, self._states = step
        self.round_number += 1
        return list(contents)
