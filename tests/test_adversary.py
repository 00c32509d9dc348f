"""Adversarial integration tests: every disruptor class gets caught."""

import random

import pytest

from repro.core import DissentSession
from repro.core.adversary import (
    DisruptorClient,
    DisruptingServer,
    EquivocatingServer,
    RequestJammerClient,
    WithholdingServer,
)
from repro.core.client import DissentClient
from repro.core.server import DissentServer
from repro.core.session import build_keys


def adversarial_session(
    client_adversaries=None, server_adversaries=None, n_servers=3, n_clients=5, seed=11
):
    """Build a session with chosen byzantine node classes."""
    client_adversaries = client_adversaries or {}
    server_adversaries = server_adversaries or {}
    rng = random.Random(seed)
    built = build_keys("test-256", n_servers, n_clients, None, rng)
    servers = []
    for j, key in enumerate(built.server_keys):
        cls, kwargs = server_adversaries.get(j, (DissentServer, {}))
        servers.append(cls(built.definition, j, key, random.Random(j), **kwargs))
    clients = []
    for i, key in enumerate(built.client_keys):
        cls, kwargs = client_adversaries.get(i, (DissentClient, {}))
        clients.append(cls(built.definition, i, key, random.Random(100 + i), **kwargs))
    session = DissentSession(built.definition, servers, clients, rng)
    session.setup()
    return session


def run_until_verdicts(session, max_rounds=14):
    verdicts = []
    for _ in range(max_rounds):
        record = session.run_round()
        if record.shuffle_requested:
            verdicts = session.run_accusation_phase()
            if verdicts:
                break
    return verdicts


class TestDisruptorClient:
    def test_traced_expelled_and_service_restored(self):
        session = adversarial_session({4: (DisruptorClient, {})})
        session.clients[4].target_slot = session.clients[2].slot
        session.post(2, b"the dissident message")
        verdicts = run_until_verdicts(session)
        assert [(v.culprit_kind, v.culprit_index) for v in verdicts] == [("client", 4)]
        assert 4 in session.expelled
        session.clients[4].target_slot = None
        for _ in range(4):
            session.run_round()
        assert b"the dissident message" in [
            m for (_, _, m) in session.delivered_messages(0)
        ]

    def test_victim_detects_disruption(self):
        session = adversarial_session({3: (DisruptorClient, {})}, seed=13)
        session.clients[3].target_slot = session.clients[0].slot
        session.post(0, b"target")
        for _ in range(3):
            session.run_round()
        assert session.clients[0].disruption_detected

    def test_expelled_client_cannot_submit(self):
        session = adversarial_session({4: (DisruptorClient, {})}, seed=14)
        session.clients[4].target_slot = session.clients[1].slot
        session.post(1, b"x")
        run_until_verdicts(session)
        assert 4 in session.expelled
        record = session.run_round()
        assert record.participation == 4  # 5 clients minus the expelled one

    def test_honest_nodes_never_convicted(self):
        session = adversarial_session({2: (DisruptorClient, {})}, seed=15)
        session.clients[2].target_slot = session.clients[4].slot
        session.post(4, b"y")
        verdicts = run_until_verdicts(session)
        for verdict in verdicts:
            assert (verdict.culprit_kind, verdict.culprit_index) == ("client", 2)


class TestRequestJammer:
    def test_randomized_retry_defeats_jammer(self):
        session = adversarial_session({1: (RequestJammerClient, {})}, seed=16)
        session.clients[1].victim_slot = session.clients[3].slot
        session.post(3, b"gets through eventually")
        # §3.8: success probability 1 - (1/2)^t; 12 rounds is plenty.
        for _ in range(12):
            session.run_round()
            if not session.clients[3].has_pending_traffic:
                break
        assert b"gets through eventually" in [
            m for (_, _, m) in session.delivered_messages(0)
        ]


class TestByzantineServers:
    def test_disrupting_server_convicted_case_b(self):
        session = adversarial_session(
            server_adversaries={1: (DisruptingServer, {})}, seed=21
        )
        session.post(0, b"msg")
        session.run_round()
        session.servers[1].target_slot = session.clients[0].slot
        verdicts = run_until_verdicts(session)
        assert any(
            v.culprit_kind == "server" and v.culprit_index == 1 for v in verdicts
        )

    def test_equivocating_server_convicted_by_rebuttal(self):
        class EquivocatingDisrupting(EquivocatingServer, DisruptingServer):
            pass

        session = adversarial_session(
            server_adversaries={2: (EquivocatingDisrupting, {"frame_client": 1})},
            seed=22,
        )
        session.post(0, b"msg")
        session.run_round()
        session.servers[2].target_slot = session.clients[0].slot
        verdicts = run_until_verdicts(session)
        assert any(
            v.culprit_kind == "server" and v.culprit_index == 2 for v in verdicts
        )
        # The framed honest client is never convicted.
        assert not any(v.culprit_kind == "client" for v in verdicts)

    def test_withholding_server_convicted_case_a(self):
        class WithholdingDisrupting(WithholdingServer, DisruptingServer):
            pass

        session = adversarial_session(
            server_adversaries={0: (WithholdingDisrupting, {})}, seed=23
        )
        session.post(3, b"msg")
        session.run_round()
        session.servers[0].target_slot = session.clients[3].slot
        verdicts = run_until_verdicts(session)
        assert any(
            v.culprit_kind == "server" and v.culprit_index == 0 for v in verdicts
        )
        assert 0 in session.convicted_servers
