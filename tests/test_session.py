"""Integration tests: the full real-crypto protocol end to end."""

import contextlib
import dataclasses

import pytest

from tests.helpers import assert_schedules_agree, fresh_session
from repro.core import DissentSession, Policy, RoundStatus
from repro.core.server import DissentServer
from repro.errors import ConfigError, InvalidSignature, ProtocolError, SessionTimeout
from repro.net.runner import NetworkedSession
from repro.persist import encode_coordinator_state


class TestSetup:
    def test_every_client_gets_unique_slot(self, small_session):
        slots = [c.slot for c in small_session.clients]
        assert sorted(slots) == list(range(6))

    def test_servers_and_clients_agree_on_schedule(self, small_session):
        keys = {tuple(s.slot_keys) for s in small_session.servers}
        keys |= {tuple(c.slot_keys) for c in small_session.clients}
        assert len(keys) == 1

    def test_double_setup_rejected(self, small_session):
        with pytest.raises(ProtocolError):
            small_session.setup()

    def test_rounds_before_setup_rejected(self):
        session = DissentSession.build(num_servers=2, num_clients=3, seed=1)
        with pytest.raises(ProtocolError):
            session.run_round()


class TestMessaging:
    def test_single_message_delivered_to_all(self):
        session = fresh_session(seed=42)
        session.post(2, b"anonymous hello")
        session.run_until_quiet()
        for i in range(len(session.clients)):
            assert b"anonymous hello" in [
                m for (_, _, m) in session.delivered_messages(i)
            ]

    def test_message_attributed_to_slot_not_client(self):
        session = fresh_session(seed=43)
        session.post(2, b"whoami")
        session.run_until_quiet()
        deliveries = [
            (slot, m)
            for (_, slot, m) in session.delivered_messages(0)
            if m == b"whoami"
        ]
        assert len(deliveries) == 1
        assert deliveries[0][0] == session.clients[2].slot

    def test_concurrent_senders(self):
        session = fresh_session(seed=44)
        for i in range(5):
            session.post(i, f"msg-{i}".encode())
        session.run_until_quiet()
        got = {m for (_, _, m) in session.delivered_messages(3)}
        assert got == {f"msg-{i}".encode() for i in range(5)}

    def test_multiple_messages_one_sender_in_order(self):
        session = fresh_session(seed=45)
        session.post(1, b"first")
        session.post(1, b"second")
        session.post(1, b"third")
        session.run_until_quiet()
        ours = [
            m
            for (_, slot, m) in session.delivered_messages(0)
            if slot == session.clients[1].slot
        ]
        assert ours == [b"first", b"second", b"third"]

    def test_large_message_grows_slot(self):
        session = fresh_session(seed=46)
        big = bytes(range(256)) * 8  # 2 KB > initial 128 B slot
        session.post(0, big)
        session.run_until_quiet()
        assert big in [m for (_, _, m) in session.delivered_messages(4)]

    def test_all_clients_see_identical_stream(self):
        """A client's stream is the outputs decoded under its schedule, so
        every client whose schedule is the session's sees the session's
        log — checked after every round, not only at the end."""
        session = fresh_session(seed=47)
        session.post(0, b"a")
        session.post(3, b"b")
        session.post(1, b"c" * 300)  # grows its slot past the initial 128 B
        for _ in range(6):
            session.run_round()
            assert_schedules_agree(session, session.clients)
        assert {m for (_, _, m) in session.delivered_messages(2)} == {
            b"a",
            b"b",
            b"c" * 300,
        }


class TestChurn:
    def test_round_completes_with_offline_clients(self):
        session = fresh_session(seed=50, policy=Policy(alpha=0.0))
        record = session.run_round(online={0, 1})
        assert record.completed
        assert record.participation == 2

    def test_sender_offline_message_waits(self):
        session = fresh_session(seed=51, policy=Policy(alpha=0.0))
        session.post(4, b"delayed")
        session.run_round(online={0, 1, 2, 3})  # sender offline
        assert session.clients[4].has_pending_traffic
        session.run_round()  # request bit
        session.run_round()  # send
        assert b"delayed" in [m for (_, _, m) in session.delivered_messages(0)]

    def test_alpha_floor_fails_round(self):
        session = fresh_session(seed=52, policy=Policy(alpha=0.9))
        session.run_round()  # basis: 5
        record = session.run_round(online={0})
        assert record.status is RoundStatus.FAILED
        assert record.output is None

    def test_failed_round_resets_basis(self):
        session = fresh_session(seed=53, policy=Policy(alpha=0.9))
        session.run_round()
        session.run_round(online={0, 1})  # fails, basis becomes 2
        record = session.run_round(online={0, 1})
        assert record.completed

    @pytest.mark.parametrize("driver", ("lockstep", "window-4", "loopback"))
    def test_failed_round_message_retransmitted(self, driver):
        """A failed round's message stays queued and is delivered once,
        under every driver of the coordinator's round sequence."""
        policy = Policy(alpha=0.9)
        window = 4 if driver == "window-4" else 1
        with contextlib.ExitStack() as stack:
            if driver == "loopback":
                session = stack.enter_context(
                    NetworkedSession.build(
                        num_servers=3, num_clients=5, seed=54, policy=policy
                    )
                )
                session.setup()
            else:
                session = fresh_session(seed=54, policy=policy)
            session.run_rounds(2, window=window)
            session.post(0, b"survives failure")
            records = session.run_schedule(
                # request bit (all online), slot open but the round fails,
                # all back online: resend
                [None, {0}, None, None],
                window=window,
            )
            assert [record.completed for record in records] == [True, False, True, True]
            assert [m for (_, _, m) in session.delivered_messages(1)] == [
                b"survives failure"
            ]

    def test_offline_client_rejoins_consistently(self):
        session = fresh_session(seed=55, policy=Policy(alpha=0.0))
        session.post(1, b"while away")
        for online in ({0, 1, 2, 3}, {0, 1, 2, 3}, None):  # client 4 returns
            session.run_round(online=online)
            # An offline client still applies the certified output.
            assert_schedules_agree(session, session.clients)
        assert b"while away" in [m for (_, _, m) in session.delivered_messages(4)]


class TestParticipationMetrics:
    def test_participation_published(self):
        session = fresh_session(seed=56, policy=Policy(alpha=0.0))
        record = session.run_round(online={0, 2, 4})
        assert record.participation == 3
        assert session.clients[0].last_participation == 3

    def test_min_participation_client_stays_passive(self):
        session = fresh_session(seed=57, policy=Policy(alpha=0.0))
        session.clients[0].min_participation = 4
        session.post(0, b"secret")
        session.run_round(online={0, 1})  # 2 < 4: passive
        session.run_round(online={0, 1})
        assert session.clients[0].has_pending_traffic  # never sent
        session.run_round()  # 5 online: basis up
        session.run_round()
        session.run_round()
        assert not session.clients[0].has_pending_traffic


class TestSchedulesAgree:
    """The session keeps the one delivery log; it is every client's only
    if every client steps the slot schedule as the session does.  Checked
    after every round of the pipelined and networked drivers, with posts
    that open, grow and close slots (lockstep: ``TestMessaging`` and
    ``TestChurn`` above)."""

    POSTS = {0: b"a" * 300, 2: b"b", 3: b"c" * 40}

    def _post(self, session):
        for i, message in self.POSTS.items():
            session.post(i, message)

    def _assert_delivered(self, session):
        assert {m for (_, _, m) in session.delivered_messages(1)} == set(
            self.POSTS.values()
        )

    def test_pipelined_window_4(self):
        session = fresh_session(seed=48)
        self._post(session)
        checked = []
        after_output = session.after_output

        def check_then_continue(record):
            # Clients have applied this round's outcome (drained or not).
            assert_schedules_agree(session, session.clients)
            checked.append(record.round_number)
            after_output(record)

        session.after_output = check_then_continue
        session.run_rounds(6, window=4)
        assert checked == list(range(6))
        self._assert_delivered(session)

    def test_networked(self):
        with NetworkedSession.build(
            num_servers=3, num_clients=5, seed=48, mode="loopback"
        ) as session:
            session.setup()
            self._post(session)
            clients = [
                session._node_objects[session.node_name("client", i)].client
                for i in range(5)
            ]
            for _ in range(6):
                session.run_round()
                assert_schedules_agree(session, clients)
            self._assert_delivered(session)

    def test_index_is_validated(self):
        session = fresh_session(seed=48)
        with pytest.raises(ConfigError):
            session.delivered_messages(5)
        with pytest.raises(ConfigError):
            session.delivered_messages(-1)


class CommitCorrupter(DissentServer):
    """Flips the last byte of its signed commit body in round 1."""

    def compute_ciphertext(self, state):
        envelope = super().compute_ciphertext(state)
        if state.round_number != 1:
            return envelope
        body = envelope.body[:-1] + bytes([envelope.body[-1] ^ 1])
        return dataclasses.replace(envelope, body=body)


class TestARoundThatRaises:
    """A round that raises is abandoned at every member, its younger
    rounds discarded and its speculated clients restored, and it is filed
    FAILED before the error leaves ``run_rounds``: the next round is
    certified, and the coordinator's whole state is the same in process
    at two windows and over loopback."""

    def _drive(self, session, window):
        session.setup()
        session.post(0, b"sent again after the failure")
        assert session.run_round().completed
        with pytest.raises((InvalidSignature, SessionTimeout)) as raised:
            session.run_rounds(3, window=window)
        assert "InvalidSignature" in f"{raised.type.__name__}: {raised.value}"
        assert all(record.completed for record in session.run_rounds(3, window=window))
        assert not session.inflight
        assert [(r.round_number, r.completed) for r in session.records] == [
            (0, True), (1, False), (2, True), (3, True), (4, True)
        ]
        assert [m for _, _, m in session.delivered_messages(0)] == [
            b"sent again after the failure"
        ]
        return encode_coordinator_state(session)

    def test_in_process_at_two_windows_and_over_loopback(self):
        def server_factory(definition, index, key, rng):
            cls = CommitCorrupter if index == 2 else DissentServer
            return cls(definition, index, key, rng)

        states = []
        for window in (1, 3):
            inproc = DissentSession.build(
                num_servers=3, num_clients=4, seed=7, server_factory=server_factory
            )
            states.append(self._drive(inproc, window))
            assert not any(engine.rounds for engine in inproc.engines)
            assert_schedules_agree(inproc, inproc.clients)
        with NetworkedSession.build(
            num_servers=3,
            num_clients=4,
            seed=7,
            server_factories={2: (CommitCorrupter, {})},
        ) as session:
            states.append(self._drive(session, 1))
        assert states[0] == states[1] == states[2]
