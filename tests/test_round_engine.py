"""The round engine with no driver underneath it.

:class:`repro.core.engine.RoundEngine` is pure: envelopes, commit-go and
timer expiries in, effects out.  These tests wire M engines together with
a bag of undelivered messages that the *test* schedules — any order, with
duplicates, with one server starved — and check that every engine still
reaches the output and certificate the lockstep driver produces.
"""

import ast
import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus import leader_index, quorum_size
from repro.core import (
    DissentSession,
    coordinator as coordinator_module,
    engine as engine_module,
)
from repro.core.accusation import make_accusation
from repro.core.adversary import VoteWithholdingServer
from repro.core.client import DissentClient
from repro.core.coordinator import Coordinator
from repro.core.engine import (
    ArmTimer,
    Broadcast,
    Fault,
    InventoryStatus,
    RoundDone,
    RoundEngine,
)
from repro.core.keyshuffle import make_session_key, run_key_shuffle
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.crypto.keys import PrivateKey
from repro.crypto.shuffle import prepare_element_input, prepare_message_input
from repro.errors import AccusationError, ProtocolError, TraceInconclusive
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


@pytest.mark.parametrize("module", [engine_module, coordinator_module])
def test_sans_io_module_imports_nothing_that_does_io(module):
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
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
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


def test_the_control_plane_has_one_copy_of_each_step():
    """Set-up, blame and the round reduction are written once: under
    ``src/repro`` each of these is called from exactly one place, the
    coordinator (``run_trace`` also from ``trace_accusation``)."""
    once = (
        "make_session_key",
        "verify_session_keys",
        "open_shuffle_submissions",
        "run_key_shuffle",
        "run_message_shuffle",
        "trace_accusation",
        "adopt_round_evidence",
    )
    sites = {name: [] for name in (*once, "run_trace")}
    root = Path(coordinator_module.__file__).parents[1]
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called in sites:
                sites[called].append(f"{path.relative_to(root)}:{node.lineno}")
    for name in once:
        assert len(sites[name]) == 1, (name, sites[name])
        assert sites[name][0].startswith("core/coordinator.py"), (name, sites[name])
    assert sorted(site.split(":")[0] for site in sites["run_trace"]) == [
        "core/accusation.py",
        "core/coordinator.py",
    ]


# ---------------------------------------------------------------------------
# The coordinator with a scripted member port: no session, no sockets
# ---------------------------------------------------------------------------


class ScriptedMembers(Coordinator):
    """Answers the coordinator from a script and logs what it was asked.

    Clients are bare :class:`DissentClient` objects (someone has to sign a
    key-shuffle submission); there are no servers, engines or transports.
    """

    def __init__(self, seed=5, num_servers=2, num_clients=4):
        rng = random.Random(seed)
        built = build_keys(None, num_servers, num_clients, None, rng)
        super().__init__(built.definition, built.server_keys, rng)
        self.clients = [
            DissentClient(built.definition, i, key, random.Random(i))
            for i, key in enumerate(built.client_keys)
        ]
        self.asked = []
        #: client -> bytes it puts into the accusation shuffle (cover: b"").
        self.accusation_bodies = {}
        #: round -> exception ``_trace_evidence`` raises for it.
        self.trace_failures = {}
        self.events = []

    def _event(self, event, **fields):
        self.events.append((event, fields))

    def _scheduling_submissions(self, purpose, publics):
        self.asked.append(("scheduling", [public.y for public in publics]))
        return [c.signed_scheduling_submission(publics, purpose) for c in self.clients]

    def _learn_schedule(self, elements):
        self.asked.append(("schedule", list(elements)))

    def _accusation_submissions(self, participants, publics, width):
        self.asked.append(("accusations", list(participants)))
        return [
            prepare_message_input(
                publics, self.accusation_bodies.get(i, b""), width, random.Random(i)
            )
            for i in participants
        ]

    def _accusation_outcome(self, participants, handled):
        self.asked.append(("outcome", list(participants), handled))

    def _trace_evidence(self, verifier, round_number, bit_index):
        self.asked.append(("evidence", round_number, bit_index))
        raise self.trace_failures[round_number]

    def _expel_member(self, client_index):
        self.asked.append(("expel", client_index))


def test_setup_draws_one_mix_key_per_server_then_runs_the_cascade():
    """The documented RNG order, which is what keeps every driver's slots
    identical: M mix keys in server order, then the cascade — and nothing
    else of the session RNG."""
    members = ScriptedMembers(seed=5)
    mirror = random.Random(5)
    built = build_keys(None, 2, 4, None, mirror)
    purpose = b"dissent.key-shuffle|" + built.definition.group_id()
    pairs = [
        make_session_key(key, j, purpose, mirror)
        for j, key in enumerate(built.server_keys)
    ]
    members.setup()
    kind, publics = members.asked[0]
    assert kind == "scheduling"
    assert publics == [session_key.public.y for _, session_key in pairs]
    submissions = [
        prepare_element_input(
            [session_key.public for _, session_key in pairs],
            client.pseudonym.y,
            random.Random(0),
        )
        for client in members.clients
    ]
    # The cascade's own draws: replay it on the mirror and both RNGs agree.
    run_key_shuffle(
        built.definition,
        [private for private, _ in pairs],
        submissions,
        context=purpose,
        rng=mirror,
    )
    assert members.rng.getstate() == mirror.getstate()
    assert members.scheduled
    assert members.asked[1] == ("schedule", members.slot_elements)
    assert sorted(members.slot_elements) == sorted(
        client.pseudonym.y for client in members.clients
    )


def test_statuses_below_the_floor_abandon_with_the_published_count():
    members = ScriptedMembers()
    statuses = [InventoryStatus(3, 2, True), InventoryStatus(3, 2, False)]
    assert members.inventory_decision(statuses) == (2, False)
    record = members.failed_round(3, 2)
    assert (record.completed, record.participation, record.output) == (False, 2, None)
    assert members.records == [record]
    published = {"round": 3, "reason": "participation below floor", "participation": 2}
    assert members.events == [("abandon", published)]
    assert members.inventory_decision([InventoryStatus(4, 4, True)] * 2) == (4, True)


def test_disagreeing_servers_are_a_protocol_error():
    members = ScriptedMembers()
    with pytest.raises(ProtocolError, match="participation count"):
        members.inventory_decision(
            [InventoryStatus(0, 4, True), InventoryStatus(0, 3, True)]
        )
    network = Network(scheduled_session())
    random.Random(1).shuffle(network.bag)
    network.run()
    dones = dict(network.dones)
    forged = dataclasses.replace(
        dones[1].output, cleartext=bytes(len(dones[1].output.cleartext))
    )
    dones[1] = dataclasses.replace(dones[1], output=forged)
    with pytest.raises(ProtocolError, match="combined cleartext"):
        members.certified_round(0, dones)
    assert members.records == []


def test_untraceable_accusations_are_skipped_not_fatal():
    members = ScriptedMembers()
    group = members.definition.group
    members.expelled.add(3)
    pseudonym = PrivateKey.generate(group, random.Random(1))
    inconclusive = make_accusation(pseudonym, group, 7, 0, 5)
    evicted = make_accusation(pseudonym, group, 2, 1, 9)
    members.accusation_bodies = {
        0: b"\x00not an accusation",
        1: inconclusive.to_bytes(group),
        2: evicted.to_bytes(group),
    }
    members.trace_failures = {
        7: TraceInconclusive("all disclosed bits consistent"),
        2: AccusationError("round 2 is no longer archived"),
    }
    assert members.run_accusation_phase() == []
    # Both well-formed accusations were traced, in whatever order the
    # shuffle put them; the malformed one never got that far.
    assert sorted(q for q in members.asked if q[0] == "evidence") == [
        ("evidence", 2, 9),
        ("evidence", 7, 5),
    ]
    assert members.asked[0] == ("accusations", [0, 1, 2])
    assert members.asked[-1] == ("outcome", [0, 1, 2], False)
    assert members.expelled == {3} and not members.events
