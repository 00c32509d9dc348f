"""Unit tests for slot scheduling: layout, evolution, determinism, the memo."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schedule
from repro.core.config import Policy
from repro.core.schedule import (
    RoundLayout,
    Scheduler,
    decode_slot,
    encode_slot,
    open_slot_bytes,
)
from repro.core.session import DissentSession
from repro.crypto import padding
from repro.errors import ProtocolError
from repro.util.bytesops import flip_bit, set_bit
from tests.helpers import global_counters


POLICY = Policy(initial_slot_payload=32, idle_close_rounds=2)


@pytest.fixture
def steps():
    """``()`` → ``core.schedule.{steps,step_hits}`` so far, from an empty memo."""
    schedule.forget_steps()
    with global_counters("core.schedule") as read:
        yield lambda: (read("steps"), read("step_hits"))


def make_scheduler(num_slots=4):
    return Scheduler(num_slots, POLICY)


def output_with_request(scheduler, slot):
    layout = scheduler.current_layout()
    return set_bit(bytes(layout.total_bytes), layout.request_bit_index(slot), 1)


class TestLayout:
    def test_all_closed_initially(self):
        layout = make_scheduler().current_layout()
        assert layout.total_bytes == layout.request_region_bytes == 1
        assert not any(layout.is_open(s) for s in range(4))

    def test_request_region_rounds_up(self):
        assert Scheduler(9, POLICY).current_layout().request_region_bytes == 2

    def test_open_slot_bytes(self):
        assert open_slot_bytes(32) == 3 + padding.OVERHEAD + 32

    def test_byte_ranges_disjoint_and_ordered(self):
        layout = RoundLayout(3, (16, 0, 8))
        a = layout.slot_byte_range(0)
        c = layout.slot_byte_range(2)
        assert a[0] == layout.request_region_bytes
        assert a[1] <= c[0]
        assert c[1] == layout.total_bytes

    def test_closed_slot_range_raises(self):
        layout = RoundLayout(3, (16, 0, 8))
        with pytest.raises(ProtocolError):
            layout.slot_byte_range(1)

    def test_bit_range_consistent(self):
        layout = RoundLayout(2, (8, 4))
        start, end = layout.slot_byte_range(1)
        assert layout.slot_bit_range(1) == (8 * start, 8 * end)

    def test_a_step_sizes_each_open_slot_once(self, monkeypatch, steps):
        """Linear in N: each slot's footprint is computed once per step
        (44 calls at N = 8 and 560 at N = 32 when every range re-summed
        the slots before it)."""
        calls = {}
        for num_slots in (8, 32):
            scheduler = Scheduler(num_slots, POLICY)
            scheduler.advance(bytes([0xFF] * ((num_slots + 7) // 8)))
            output = bytes(scheduler.current_layout().total_bytes)
            tally = []
            monkeypatch.setattr(
                schedule,
                "open_slot_bytes",
                lambda capacity: tally.append(capacity) or open_slot_bytes(capacity),
            )
            scheduler.advance(output)
            monkeypatch.undo()
            calls[num_slots] = len(tally)
        assert calls == {8: 8, 32: 32}
        assert steps() == (4, 0)


class TestSlotOpening:
    def test_request_bit_opens_slot(self):
        scheduler = make_scheduler()
        scheduler.advance(output_with_request(scheduler, 2))
        layout = scheduler.current_layout()
        assert layout.capacities == (0, 0, 32, 0)

    def test_no_request_stays_closed(self):
        scheduler = make_scheduler()
        scheduler.advance(bytes(scheduler.current_layout().total_bytes))
        assert scheduler.current_layout().capacities == (0, 0, 0, 0)

    def test_multiple_simultaneous_opens(self):
        scheduler = make_scheduler()
        layout = scheduler.current_layout()
        output = bytes(layout.total_bytes)
        output = set_bit(output, 0, 1)
        output = set_bit(output, 3, 1)
        scheduler.advance(output)
        assert scheduler.current_layout().capacities == (32, 0, 0, 32)


class TestSlotEvolution:
    def _open_slot(self, scheduler, slot=0):
        scheduler.advance(output_with_request(scheduler, slot))

    def test_length_field_grows_slot(self):
        scheduler = make_scheduler()
        self._open_slot(scheduler)
        layout = scheduler.current_layout()
        slot_bytes = encode_slot(layout, POLICY, 0, b"hi", requested_length=100)
        start, end = layout.slot_byte_range(0)
        output = bytearray(layout.total_bytes)
        output[start:end] = slot_bytes
        scheduler.advance(bytes(output))
        assert scheduler.slot_capacity(0) == 100

    def test_zero_length_closes_slot(self):
        scheduler = make_scheduler()
        self._open_slot(scheduler)
        layout = scheduler.current_layout()
        slot_bytes = encode_slot(layout, POLICY, 0, b"", requested_length=0)
        start, end = layout.slot_byte_range(0)
        output = bytearray(layout.total_bytes)
        output[start:end] = slot_bytes
        scheduler.advance(bytes(output))
        assert scheduler.slot_capacity(0) == 0

    def test_requested_length_clamped(self):
        policy = Policy(initial_slot_payload=32, max_slot_payload=64)
        scheduler = Scheduler(2, policy)
        scheduler.advance(set_bit(bytes(1), 0, 1))
        layout = scheduler.current_layout()
        slot_bytes = encode_slot(layout, policy, 0, b"", requested_length=60000)
        start, end = layout.slot_byte_range(0)
        output = bytearray(layout.total_bytes)
        output[start:end] = slot_bytes
        scheduler.advance(bytes(output))
        assert scheduler.slot_capacity(0) == 64

    def test_idle_slot_closes_after_policy_rounds(self):
        scheduler = make_scheduler()
        self._open_slot(scheduler)
        for _ in range(POLICY.idle_close_rounds):
            assert scheduler.slot_capacity(0) == 32
            scheduler.advance(bytes(scheduler.current_layout().total_bytes))
        assert scheduler.slot_capacity(0) == 0

    def test_corrupted_slot_keeps_capacity(self):
        scheduler = make_scheduler()
        self._open_slot(scheduler)
        layout = scheduler.current_layout()
        start, end = layout.slot_byte_range(0)
        output = bytearray(layout.total_bytes)
        output[start:end] = b"\xff" * (end - start)  # garbage: fails padding
        scheduler.advance(bytes(output))
        assert scheduler.slot_capacity(0) == 32

    def test_wrong_output_length_rejected(self):
        scheduler = make_scheduler()
        with pytest.raises(ProtocolError):
            scheduler.advance(bytes(99))


class TestEncodeDecodeSlot:
    def _layout(self):
        return RoundLayout(2, (32, 0))

    def test_roundtrip(self):
        layout = self._layout()
        slot_bytes = encode_slot(
            layout, POLICY, 0, b"payload", requested_length=48, shuffle_request=5
        )
        cleartext = bytes(layout.request_region_bytes) + slot_bytes
        content = decode_slot(layout, POLICY, 0, cleartext)
        assert not content.is_corrupted and not content.is_silent
        assert content.requested_length == 48
        assert content.shuffle_request == 5
        assert content.payload.rstrip(b"\x00") == b"payload"

    def test_silent_slot(self):
        layout = self._layout()
        cleartext = bytes(layout.total_bytes)
        content = decode_slot(layout, POLICY, 0, cleartext)
        assert content.is_silent

    def test_payload_too_big_rejected(self):
        layout = self._layout()
        with pytest.raises(ProtocolError):
            encode_slot(layout, POLICY, 0, b"x" * 33)

    def test_shuffle_request_too_wide_rejected(self):
        layout = self._layout()
        with pytest.raises(ProtocolError):
            encode_slot(layout, POLICY, 0, b"", shuffle_request=256)

    def test_closed_slot_encode_rejected(self):
        layout = self._layout()
        with pytest.raises(ProtocolError):
            encode_slot(layout, POLICY, 1, b"x")

    def test_shuffle_request_readable_in_corrupted_slot(self):
        # The accusation trigger must survive payload corruption (§3.9).
        layout = self._layout()
        slot_bytes = encode_slot(layout, POLICY, 0, b"data", shuffle_request=3)
        corrupted = slot_bytes[:3] + b"\xff" * (len(slot_bytes) - 3)
        cleartext = bytes(layout.request_region_bytes) + corrupted
        content = decode_slot(layout, POLICY, 0, cleartext)
        assert content.is_corrupted
        assert content.shuffle_request == 3

    def test_only_a_padding_error_means_corruption(self, monkeypatch, steps):
        """A bug inside ``padding.decode`` is not a disrupted slot: it
        propagates, and the step that raised answers no other node."""
        scheduler = make_scheduler(2)
        scheduler.advance(set_bit(bytes(1), 0, 1))
        layout = scheduler.current_layout()
        cleartext = bytes(layout.request_region_bytes) + encode_slot(
            layout, POLICY, 0, b"bug"
        )

        def broken(body):
            raise TypeError("a bug, not a disruption")

        monkeypatch.setattr(padding, "decode", broken)
        with pytest.raises(TypeError):
            decode_slot(layout, POLICY, 0, cleartext)
        with pytest.raises(TypeError):
            scheduler.clone().advance(cleartext)
        monkeypatch.undo()
        [content] = scheduler.advance(cleartext)
        assert content.payload.rstrip(b"\x00") == b"bug"
        assert steps() == (2, 0)


class TestDeterminism:
    def test_parallel_schedulers_stay_identical(self):
        rng = random.Random(8)
        schedulers = [make_scheduler(3) for _ in range(4)]
        for step in range(12):
            layout = schedulers[0].current_layout()
            output = bytearray(layout.total_bytes)
            # Random request bits and garbage in random open slots.
            for slot in range(3):
                if not layout.is_open(slot) and rng.random() < 0.5:
                    output = bytearray(
                        set_bit(bytes(output), layout.request_bit_index(slot), 1)
                    )
                elif layout.is_open(slot) and rng.random() < 0.5:
                    start, end = layout.slot_byte_range(slot)
                    output[start:end] = rng.randbytes(end - start)
            for scheduler in schedulers:
                scheduler.advance(bytes(output))
            states = {s.current_layout().capacities for s in schedulers}
            assert len(states) == 1, f"diverged at step {step}"


MEMO_POLICY = Policy(
    initial_slot_payload=8,
    max_slot_payload=40,
    idle_close_rounds=2,
    shuffle_request_bits=3,
)


def random_output(layout, policy, choose):
    """A round output for ``layout`` reaching every branch of a step.

    ``choose(n)`` picks from ``range(n)``: per closed slot, whether its
    request bit is set; per open slot, silence, an intact slot (any
    payload, capacity request — close, keep, grow, past the clamp — and
    shuffle request), one flipped bit in the padded body, or garbage.
    """
    output = bytearray(layout.total_bytes)
    for slot in range(layout.num_slots):
        if not layout.is_open(slot):
            if choose(2):
                output = bytearray(
                    set_bit(bytes(output), layout.request_bit_index(slot), 1)
                )
            continue
        start, end = layout.slot_byte_range(slot)
        action = choose(4)
        if action == 0:
            continue
        if action == 3:
            output[start:end] = bytes([1 + choose(255)]) * (end - start)
            continue
        capacity = layout.capacities[slot]
        requests = (0, capacity, capacity + 8, policy.max_slot_payload + 1)
        encoded = encode_slot(
            layout,
            policy,
            slot,
            bytes([choose(256)]) * choose(capacity + 1),
            requested_length=requests[choose(len(requests))],
            shuffle_request=choose(1 << policy.shuffle_request_bits),
            pad_seed=bytes([choose(256)]) * padding.SEED_BYTES,
        )
        if action == 2:
            header_bits = 8 * schedule.SLOT_HEADER_BYTES
            encoded = flip_bit(
                encoded, header_bits + choose(8 * len(encoded) - header_bits)
            )
        output[start:end] = encoded
    return bytes(output)


def state_of(scheduler):
    return scheduler.round_number, scheduler._states


class TestStepMemo:
    """Sharing a step between schedulers changes no answer, only the work."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_slots=st.integers(1, 6),
        nodes=st.integers(1, 4),
        rounds=st.integers(1, 10),
        data=st.data(),
    )
    def test_shared_steps_equal_steps_taken_alone(
        self, num_slots, nodes, rounds, data
    ):
        def choose(n):
            return data.draw(st.integers(0, n - 1))

        alone = [Scheduler(num_slots, MEMO_POLICY) for _ in range(nodes)]
        shared = [Scheduler(num_slots, MEMO_POLICY) for _ in range(nodes)]
        for _ in range(rounds):
            output = random_output(alone[0].current_layout(), MEMO_POLICY, choose)
            expected = []
            for scheduler in alone:
                schedule.forget_steps()
                expected.append(scheduler.advance(output))
            schedule.forget_steps()
            with global_counters("core.schedule") as read:
                # Every node hands in its own copy and gets its own list.
                got = [
                    scheduler.advance(bytes(bytearray(output)))
                    for scheduler in shared
                ]
            assert got == expected
            assert len({id(contents) for contents in got}) == nodes
            assert (read("steps"), read("step_hits")) == (1, nodes - 1)
            assert [state_of(s) for s in shared] == [state_of(s) for s in alone]

    def test_a_scheduler_in_another_state_takes_its_own_step(self, steps):
        """Same capacities and cleartext, one silent round apart: the key
        holds ``idle_rounds``, so the two get different answers."""
        fresh = Scheduler(2, MEMO_POLICY)
        fresh.advance(set_bit(bytes(1), 0, 1))
        idle = fresh.clone()
        silent = bytes(fresh.current_layout().total_bytes)
        idle.advance(silent)
        assert idle.current_layout() == fresh.current_layout()
        fresh.advance(silent)  # the step ``idle`` took: answered
        idle.advance(silent)  # its second silent round: closes the slot
        assert (fresh.slot_capacity(0), idle.slot_capacity(0)) == (8, 0)
        assert steps() == (3, 1)

    def test_a_lagging_scheduler_catches_up_to_the_same_state(self, steps):
        """One round behind, every step is answered; further behind than
        the memo holds, every step is retaken.  Both end where the leader
        is, having been handed what the leader was."""
        rng = random.Random(11)
        rounds = 2 * schedule.STEP_MEMO_ENTRIES
        leader = Scheduler(4, MEMO_POLICY)
        near, far = leader.clone(), leader.clone()
        outputs, contents = [], []
        for r in range(rounds):
            outputs.append(
                random_output(leader.current_layout(), MEMO_POLICY, rng.randrange)
            )
            contents.append(leader.advance(outputs[r]))
            if r:
                assert near.advance(outputs[r - 1]) == contents[r - 1]
        assert near.advance(outputs[-1]) == contents[-1]
        assert [far.advance(output) for output in outputs] == contents
        assert steps() == (2 * rounds, rounds)
        assert state_of(near) == state_of(far) == state_of(leader)

    def test_the_memo_is_bounded_and_evicts_oldest_first(self, monkeypatch, steps):
        monkeypatch.setattr(schedule, "STEP_MEMO_ENTRIES", 2)
        start = Scheduler(4, MEMO_POLICY)
        outputs = [set_bit(bytes(1), slot, 1) for slot in range(4)]
        for output in outputs:
            start.clone().advance(output)
            assert len(schedule._steps) <= 2
        assert steps() == (4, 0)
        for output in outputs[2:]:
            start.clone().advance(output)
        assert steps() == (4, 2)
        start.clone().advance(outputs[0])
        assert steps() == (5, 2)

    def test_threads_stepping_together_agree(self, monkeypatch):
        monkeypatch.setattr(schedule, "STEP_MEMO_ENTRIES", 1)  # evict constantly
        rng = random.Random(12)
        driver = Scheduler(6, MEMO_POLICY)
        outputs, expected = [], []
        for _ in range(30):
            outputs.append(
                random_output(driver.current_layout(), MEMO_POLICY, rng.randrange)
            )
            schedule.forget_steps()
            expected.append(driver.advance(outputs[-1]))
        results, errors = {}, []

        def node(n):
            try:
                scheduler = Scheduler(6, MEMO_POLICY)
                results[n] = []
                for step, output in enumerate(outputs):
                    results[n].append(scheduler.advance(bytes(bytearray(output))))
                    if step % 7 == n:
                        schedule.forget_steps()
            except Exception as exc:  # the assertion below reports it
                errors.append(exc)

        threads = [threading.Thread(target=node, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(results[n] == expected for n in range(6))

    def test_a_second_build_with_the_same_seed_takes_every_step_again(self):
        """Same seed, same round outputs: without the reset in
        ``build_keys`` the second session's steps would all be hits."""
        spent = []
        for _ in range(2):
            with global_counters("core.schedule") as read:
                session = DissentSession.build(
                    num_servers=2,
                    num_clients=4,
                    seed=2012,
                )
                session.setup()
                session.post(0, b"again")
                session.run_rounds(3)
            spent.append((read("steps"), read("step_hits")))
        assert spent[0] == spent[1] == (3, 3 * (4 + 2 - 1))
