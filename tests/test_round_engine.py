"""The round engine with no driver underneath it.

:class:`repro.core.engine.RoundEngine` is pure: envelopes, commit-go and
timer expiries in, effects out.  These tests wire M engines together with
a bag of undelivered messages that the *test* schedules — any order, with
duplicates, with one server starved — and check that every engine still
reaches the output and certificate the lockstep driver produces.
"""

import ast
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.consensus import leader_index, quorum_size
from repro.core import DissentSession, engine as engine_module
from repro.core.adversary import VoteWithholdingServer
from repro.core.engine import (
    ArmTimer,
    Broadcast,
    Fault,
    InventoryStatus,
    RoundDone,
    RoundEngine,
)
from repro.core.server import DissentServer
from repro.errors import ProtocolError
from repro.net.message import SERVER_SIGNATURE

M = 3
COMMIT_GO = "commit-go"


def scheduled_session(withholder=None):
    """A seeded group after its key shuffle, with one message queued."""

    def server_factory(definition, index, key, rng):
        cls = VoteWithholdingServer if index == withholder else DissentServer
        return cls(definition, index, key, rng)

    # No explicit group: DISSENT_GROUP_BACKEND steers this module in CI.
    session = DissentSession.build(
        None, M, 4, seed=77, server_factory=server_factory
    )
    session.setup()
    session.post(1, b"engine under test")
    return session


class Network:
    """Round 0 on M fresh engines, joined by a bag the test delivers from.

    Plays the coordinator only as far as it must: once every inventory
    status is in, a commit-go for each server joins the bag.
    """

    def __init__(self, session) -> None:
        self.engines = [RoundEngine(server) for server in session.servers]
        self.bag: list[tuple[int, object]] = []
        self.statuses: dict[int, InventoryStatus] = {}
        self.timers: dict[int, int] = {}
        self.dones: dict[int, RoundDone] = {}
        envelopes = {
            i: client.produce_ciphertext(0)
            for i, client in enumerate(session.clients)
        }
        for j, engine in enumerate(self.engines):
            self.apply(j, engine.begin_round(0, envelopes))
        for i, envelope in envelopes.items():
            self.bag.append((session.definition.upstream_server(i), envelope))

    def apply(self, j, effects) -> None:
        for effect in effects:
            match effect:
                case Broadcast(envelope):
                    self.bag.extend((k, envelope) for k in range(M) if k != j)
                case InventoryStatus():
                    self.statuses[j] = effect
                    if len(self.statuses) == M:
                        self.bag.extend((k, COMMIT_GO) for k in range(M))
                case ArmTimer(view=view):
                    self.timers[j] = view
                case RoundDone():
                    self.dones[j] = effect
                case Fault(error=error):
                    raise error

    def deliver(self, position: int) -> None:
        k, item = self.bag.pop(position)
        engine = self.engines[k]
        if 0 not in engine.rounds:
            return  # a straggler for a server that already finished
        self.apply(
            k, engine.commit_go(0) if item is COMMIT_GO else engine.deliver(item)
        )

    def run(self, hold=lambda k, item: False) -> None:
        """Deliver in FIFO order everything ``hold`` does not keep back."""
        while True:
            ready = [p for p, (k, item) in enumerate(self.bag) if not hold(k, item)]
            if not ready:
                return
            self.deliver(ready[0])


def lockstep_round():
    """What the lockstep driver makes of the same seeded round."""
    session = scheduled_session()
    return session.definition, session.run_round()


DEFINITION, REFERENCE = lockstep_round()


def assert_all_match_lockstep(network) -> None:
    assert sorted(network.dones) == list(range(M))
    for done in network.dones.values():
        assert done.output == REFERENCE.output
        assert done.certificate == REFERENCE.certificate
        assert done.proof is None and not done.shuffle_requested
    REFERENCE.certificate.verify(DEFINITION)
    assert REFERENCE.certificate.view == 0
    assert REFERENCE.certificate.is_full(M)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_any_delivery_order_with_duplicates_reaches_the_lockstep_round(schedule_seed):
    """Order and duplication of the honest envelope multiset do not matter:
    every engine assembles lockstep's output and the full view-0 certificate
    — including when proposals and votes overtake a server's own signature
    exchange, which a random order does to some server most of the time."""
    rng = random.Random(schedule_seed)
    network = Network(scheduled_session())
    while network.bag:
        position = rng.randrange(len(network.bag))
        if rng.random() < 0.2:
            network.bag.append(network.bag[position])
        network.deliver(position)
    assert_all_match_lockstep(network)


def test_consensus_envelopes_ahead_of_the_verify_phase_are_replayed():
    network = Network(scheduled_session())
    leader = leader_index(DEFINITION.group_id(), 0, 0, 0, M)
    slow = (leader + 1) % M

    def starve(k, item):
        return k == slow and item is not COMMIT_GO and item.msg_type == SERVER_SIGNATURE

    network.run(hold=starve)
    # The other two assembled their outputs, proposed and voted; the slow
    # server cannot judge any of it before it knows its own digest.
    waiting = network.engines[slow].rounds[0]
    assert waiting.output is None
    assert {e.msg_type for e in waiting.pending} == {"leader-propose", "server-vote"}
    assert not network.dones
    network.run()
    assert_all_match_lockstep(network)


def test_timer_expiry_with_a_withheld_vote_cuts_the_majority_certificate():
    withholder = 1
    network = Network(scheduled_session(withholder))
    network.run()
    # Quiescent, undecided, every view-0 timer armed: only time can move it.
    assert not network.bag and not network.dones
    assert network.timers == {j: 0 for j in range(M)}
    for j, engine in enumerate(network.engines):
        network.apply(j, engine.view_timer_expired(0, 0))
    assert sorted(network.dones) == list(range(M))
    for done in network.dones.values():
        certificate = done.certificate
        certificate.verify(DEFINITION)
        assert certificate.view == 0
        assert len(certificate.votes) == quorum_size(M)
        assert withholder not in certificate.voters
        assert done.output == REFERENCE.output
    # A stale expiry (the round is over) asks for nothing.
    assert network.engines[0].view_timer_expired(0, 0) == []


def test_a_rejected_input_is_an_effect_and_leaves_the_round_usable():
    session = scheduled_session()
    engine = RoundEngine(session.servers[0])
    [fault] = engine.commit_go(5)
    assert isinstance(fault, Fault) and isinstance(fault.error, ProtocolError)
    engine.begin_round(0, {})
    [fault] = engine.begin_round(0, {})  # already open
    assert isinstance(fault.error, ProtocolError)
    assert 0 in engine.rounds
    engine.abandon(0)
    assert not engine.rounds and not session.servers[0].rounds_in_flight


def test_engine_module_imports_nothing_that_does_io():
    banned = (
        "asyncio",
        "socket",
        "selectors",
        "threading",
        "time",
        "subprocess",
        "repro.net.transport",
        "repro.net.node",
        "repro.net.runner",
    )
    imported = set()
    for node in ast.walk(ast.parse(Path(engine_module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    offending = {
        name
        for name in imported
        for module in banned
        if name == module or name.startswith(module + ".")
    }
    assert not offending
