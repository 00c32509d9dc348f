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
from repro.core.coordinator import (
    BELOW_FLOOR,
    AbandonRound,
    ApplyRecord,
    BeginRound,
    CommitGo,
    Coordinator,
    DrainTo,
)
from repro.core.engine import (
    ArmTimer,
    Broadcast,
    Fault,
    InventoryStatus,
    PhaseBoundary,
    RoundDone,
    RoundEngine,
)
from repro.core.keyshuffle import make_session_key, run_key_shuffle
from repro.core.server import DissentServer
from repro.core.session import build_keys
from repro.crypto.keys import PrivateKey
from repro.crypto.shuffle import prepare_element_input, prepare_message_input
from repro.errors import (
    AccusationError,
    ConfigError,
    ProtocolError,
    TraceInconclusive,
    WireDecodeError,
)
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    LEADER_PROPOSE,
    SERVER_COMMIT,
    SERVER_INVENTORY,
    SERVER_REVEAL,
    SERVER_SIGNATURE,
    SERVER_VOTE,
    VIEW_CHANGE,
    make_envelope,
)
from repro.net.runner import NetworkedSession
from repro.net.wire import encode_consensus_body, encode_view_change_body
from repro.obs import MetricsRegistry
from repro.util.serialization import pack_fields, unpack_fields

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
        #: Every effect each engine emitted, in order.
        self.effects: dict[int, list] = {j: [] for j in range(M)}
        envelopes = {
            i: client.produce_ciphertext(0)
            for i, client in enumerate(session.clients)
        }
        for j, engine in enumerate(self.engines):
            self.apply(j, engine.begin_round(0, envelopes))
        for i, envelope in envelopes.items():
            self.bag.append((session.definition.upstream_server(i), envelope))

    def apply(self, j, effects) -> None:
        self.effects[j].extend(effects)
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
    assert not engine.rounds


#: What a mutation does to a field's type.
_RETYPED = {int: lambda v: str(v).encode(), bytes: len, str: str.encode}


def _mutated_bodies(body: bytes, packed: bool = True, drops: bool = True) -> dict:
    """Every one-field mutation of an envelope body, by name: each field
    dropped (``drops``) or retyped, the body cut a byte short, a field (a
    raw body: a byte) appended."""
    found = {"truncate": body[:-1], "append": body + b"\x00"}
    if packed:
        fields = unpack_fields(body)
        found["append"] = pack_fields(*fields, 0)
        for i, value in enumerate(fields):
            if drops:
                found[f"drop {i}"] = pack_fields(*fields[:i], *fields[i + 1 :])
            found[f"retype {i}"] = pack_fields(
                *fields[:i], _RETYPED[type(value)](value), *fields[i + 1 :]
            )
    return found


def _resigned(key, envelope, body):
    """``envelope`` with ``body``, validly signed by ``key``'s member."""
    return make_envelope(
        key,
        envelope.msg_type,
        envelope.sender,
        envelope.group_id,
        envelope.round_number,
        body,
    )


class ForgingNetwork(Network):
    """:class:`Network` where ``forge`` swaps one member's envelope of
    ``msg_type`` on its way to the peers (the member itself keeps its
    honest one), and every Fault is kept instead of raised."""

    def __init__(self, session, msg_type, forger, forge) -> None:
        self.msg_type, self.forger, self.forge = msg_type, forger, forge
        self.faults: list[tuple[int, Exception]] = []
        super().__init__(session)
        if msg_type == CLIENT_CIPHERTEXT:
            self.bag = [
                (k, forge(item) if item.sender == forger else item)
                for k, item in self.bag
            ]

    def apply(self, j, effects) -> None:
        kept = []
        for effect in effects:
            if isinstance(effect, Fault):
                self.faults.append((j, effect.error))
                continue
            if (
                isinstance(effect, Broadcast)
                and effect.envelope.msg_type == self.msg_type
                and effect.envelope.sender == self.forger
            ):
                effect = Broadcast(self.forge(effect.envelope))
            kept.append(effect)
        super().apply(j, kept)


#: The data-plane envelopes an engine takes: who sends one, and whether its
#: body is packed fields (an inventory) or raw bytes.
DATA_PLANE = {
    CLIENT_CIPHERTEXT: ("client-3", False),
    SERVER_INVENTORY: ("server-0", True),
    SERVER_COMMIT: ("server-1", False),
    SERVER_REVEAL: ("server-2", False),
    SERVER_SIGNATURE: ("server-0", False),
}


def _honest_body(msg_type, sender):
    """The body ``sender`` sends of ``msg_type`` in the seeded round 0."""
    network = Network(scheduled_session())
    sent = [envelope for _, envelope in network.bag]
    network.run()
    sent += [
        effect.envelope
        for effects in network.effects.values()
        for effect in effects
        if isinstance(effect, Broadcast)
    ]
    [body] = {
        envelope.body
        for envelope in sent
        if envelope.msg_type == msg_type and envelope.sender == sender
    }
    return body


@pytest.mark.parametrize("msg_type", sorted(DATA_PLANE))
def test_a_mutated_data_plane_body_is_a_fault_and_never_raises(msg_type):
    """A body with a field retyped, cut short or appended, validly signed
    by a member of the right role, in place of the honest one: every peer
    that reads it returns a Fault, and ``deliver`` raises nothing.  A
    client's ciphertext has no fields: one of the wrong length is refused
    (its client is left out of the round).  A list that loses an element
    is a well-formed shorter inventory, so the walk drops no field.  Before
    each owner decoded through ``unpack_typed``, ``pack_fields(b"x")`` as
    an inventory raised a bare ``ValueError`` out of ``deliver``, the
    digit-bytes inventory (``retype 0``) was read as a list of clients,
    and a client index past the roster raised a bare ``KeyError``."""
    forger, packed = DATA_PLANE[msg_type]
    honest = _honest_body(msg_type, forger)
    forged = _mutated_bodies(honest, packed, drops=False)
    if msg_type == SERVER_INVENTORY:
        forged["one bytes field"] = pack_fields(b"x")
        forged["a client out of range"] = pack_fields(
            *unpack_fields(honest), DEFINITION.num_clients
        )
    for label, body in forged.items():
        session = scheduled_session()
        key = next(
            member.key
            for member in (*session.servers, *session.clients)
            if member.name == forger
        )
        network = ForgingNetwork(
            session,
            msg_type,
            forger,
            lambda envelope: _resigned(key, envelope, body),
        )
        network.run()
        if msg_type == CLIENT_CIPHERTEXT:
            assert network.faults == [], label
            assert sorted(network.dones) == list(range(M)), label
            for done in network.dones.values():
                assert done.output.participation == DEFINITION.num_clients - 1
        else:
            assert network.faults, label
            assert not network.dones, label
            for _, error in network.faults:
                assert isinstance(error, ProtocolError), (label, error)


def test_a_mutated_consensus_body_is_a_fault_and_leaves_the_round_usable():
    """Propose, vote and view-change bodies, each mutated and validly
    signed by a server, delivered to an engine waiting in view 0: each
    ``deliver`` returns a Fault (the owner's ``WireDecodeError``) and
    raises nothing, and the majority certificate still forms."""
    network = Network(scheduled_session(withholder=1))
    network.run()
    sender = network.engines[0].server
    digest = network.engines[2].rounds[0].digest
    honest = {
        LEADER_PROPOSE: encode_consensus_body(0, digest),
        SERVER_VOTE: encode_consensus_body(0, digest),
        VIEW_CHANGE: encode_view_change_body(1, "timeout"),
    }
    for msg_type, body in honest.items():
        for label, forged in _mutated_bodies(body).items():
            envelope = make_envelope(
                sender.key, msg_type, sender.name, sender.group_id, 0, forged
            )
            [fault] = network.engines[2].deliver(envelope)
            assert isinstance(fault, Fault), (msg_type, label)
            assert isinstance(fault.error, WireDecodeError), (msg_type, label)
    for j, engine in enumerate(network.engines):
        network.apply(j, engine.view_timer_expired(0, 0))
    assert sorted(network.dones) == list(range(M))


def test_commit_phase_input_waits_for_the_inventories_and_commit_go():
    """Phase order lives in the engine's script alone: a peer's commitment
    or reveal that arrives before this server has the inventories is only
    collected, and this server commits once inventories and commit-go are in."""
    reference = Network(scheduled_session())
    reference.run()
    assert_all_match_lockstep(reference)
    slow = 0
    early = [
        effect.envelope
        for j in range(M)
        if j != slow
        for effect in reference.effects[j]
        if isinstance(effect, Broadcast)
        and effect.envelope.msg_type in (SERVER_COMMIT, SERVER_REVEAL)
    ]
    assert len(early) == 2 * (M - 1)

    network = Network(scheduled_session())
    engine = network.engines[slow]
    for envelope in early:
        assert engine.deliver(envelope) == []
    network.run(hold=lambda k, item: k == slow and item is COMMIT_GO)
    # Every inventory is in and every status passed, yet without its
    # commit-go the slow server has neither committed nor ended a phase
    # past the inventory — and no peer could reveal without its commitment.
    assert network.bag == [(slow, COMMIT_GO)]
    phases = [e.phase for e in network.effects[slow] if isinstance(e, PhaseBoundary)]
    assert phases == ["submit", "inventory"]
    for j in range(M):
        sent = {
            e.envelope.msg_type
            for e in network.effects[j]
            if isinstance(e, Broadcast)
        }
        assert SERVER_REVEAL not in sent
        assert (SERVER_COMMIT in sent) == (j != slow)
    network.run()
    assert_all_match_lockstep(network)


def test_the_engine_checks_each_round_rule_once():
    """Begun once, begun in ascending order, finished oldest first: each
    broken rule is a Fault effect, and the engine keeps its rounds."""
    session = scheduled_session()
    engines = [RoundEngine(server) for server in session.servers]
    for engine in engines:
        # Round 0 waits for ciphertexts that never come.
        assert engine.begin_round(0, range(4)) == []
    queue = [(j, e) for j, engine in enumerate(engines) for e in engine.begin_round(2, ())]
    for engine in engines:
        for r in (0, 2):
            [fault] = engine.begin_round(r, ())
            assert isinstance(fault, Fault)
            assert "already open" in str(fault.error)
        [fault] = engine.begin_round(1, ())
        assert isinstance(fault, Fault)
        assert "ascending order" in str(fault.error)
    # Round 2 has no submitters, so it runs to the certificate on its own.
    statuses, faults = 0, []
    while queue:
        j, effect = queue.pop(0)
        match effect:
            case Broadcast(envelope):
                for k, engine in enumerate(engines):
                    if k != j:
                        queue.extend((k, e) for e in engine.deliver(envelope))
            case InventoryStatus():
                statuses += 1
                if statuses == M:
                    for k, engine in enumerate(engines):
                        queue.extend((k, e) for e in engine.commit_go(2))
            case Fault(error=error):
                faults.append((j, error))
            case RoundDone():
                pytest.fail("round 2 finished before round 0")
    assert sorted({j for j, _ in faults}) == list(range(M))
    for _, error in faults:
        assert isinstance(error, ProtocolError)
        assert "cannot finish before older rounds" in str(error)
    for server, engine in zip(session.servers, engines):
        assert sorted(engine.rounds) == [0, 2]
        assert not server.archive


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
    """Set-up, blame, the round's decisions and the round reduction are
    written once: under ``src/repro`` each of these is called from exactly
    one place, the coordinator (``run_trace`` also from
    ``trace_accusation``)."""
    once = (
        "make_session_key",
        "verify_session_keys",
        "open_shuffle_submissions",
        "run_key_shuffle",
        "run_message_shuffle",
        "trace_accusation",
        "adopt_round_evidence",
        "inventory_decision",
        "certified_round",
        "failed_round",
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


def test_the_round_sequence_runs_with_no_driver():
    """The coordinator's round machine, fed by hand: a certified round, a
    §3.7 floor failure, an expired barrier, an error after and one before
    the inventory, and at W = 2 a speculation that does not hold.  Each
    event's effects come in order, each record is filed once, and the
    session RNG is never drawn from."""
    # The same seed and shape as ``scheduled_session``: the same keys, so
    # the engines' round-0 reports certify under this coordinator.
    members = ScriptedMembers(seed=77, num_servers=M, num_clients=4)
    members.registry = MetricsRegistry()
    rng_state = members.rng.getstate()
    network = Network(scheduled_session())
    network.run()
    everyone = (0, 1, 2, 3)

    # W = 2: round 1 is built while round 0 is in flight; round 0's
    # members did not see the outcome they assumed, so round 1 is dropped.
    assert members.issue_round(None) == [BeginRound(0, everyone)]
    assert members.issue_round({0, 1, 2}) == [BeginRound(1, (0, 1, 2))]
    assert members.statuses_received(0, list(network.statuses.values())) == [
        CommitGo(0)
    ]
    [apply] = members.dones_received(0, network.dones)
    certified = apply.record
    assert certified.completed and certified.certificate is not None
    assert members.speculation_checked(0, False) == [DrainTo(0)]
    assert not members.inflight and members.round_number == 1

    # The floor: the fresh count is published.
    assert members.issue_round(None) == [BeginRound(1, everyone)]
    below = [InventoryStatus(1, 2, j != 1) for j in range(M)]
    assert members.statuses_received(1, below) == [
        AbandonRound(1),
        ApplyRecord(members.records[-1]),
    ]
    # A dark member through the inventory barrier: the live count.
    members.issue_round(None)
    assert members.barrier_expired(2, 3, "no inventory") == [
        AbandonRound(2),
        ApplyRecord(members.records[-1]),
    ]
    # An error after the inventory publishes its count; one before it,
    # the round's submitters.
    members.issue_round(None)
    assert members.statuses_received(3, [InventoryStatus(3, 4, True)] * M) == [
        CommitGo(3)
    ]
    assert members.round_raised(ProtocolError("bad commit")) == [
        AbandonRound(3),
        ApplyRecord(members.records[-1]),
    ]
    members.issue_round({0, 1})
    members.issue_round(None)
    assert members.round_raised(ProtocolError("bad build")) == [
        AbandonRound(4),
        DrainTo(4),
        ApplyRecord(members.records[-1]),
    ]
    assert members.round_raised(ProtocolError("nothing in flight")) == []

    assert [
        (r.round_number, r.completed, r.participation) for r in members.records
    ] == [(0, True, 4), (1, False, 2), (2, False, 3), (3, False, 4), (4, False, 2)]
    assert members.records[0] is certified
    assert [fields["reason"] for event, fields in members.events] == [
        BELOW_FLOOR,
        "no inventory",
        "ProtocolError: bad commit",
        "ProtocolError: bad build",
    ]
    counters = members.registry.snapshot()["counters"]
    assert counters["session.rounds_completed"] == 1
    assert counters["session.rounds_failed"] == 4
    assert counters["session.rounds_abandoned"] == 1
    assert counters["pipeline.drains"] == 2
    assert not members.inflight and members.round_number == 5
    assert members.rng.getstate() == rng_state


def test_the_networked_driver_refuses_a_window():
    with NetworkedSession.build(None, 2, 3, seed=5) as session:
        with pytest.raises(ConfigError, match="one round at a time"):
            session.run_rounds(2, window=2)


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
