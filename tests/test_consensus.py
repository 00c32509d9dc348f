"""Byzantine control plane: rotation, certificates, view change, expulsion.

The consensus layer must be invisible when nobody misbehaves — every
no-fault run stays bit-identical to the engines without it — and must
keep the session live and attributable under all three leader failure
modes: crash/stall (view timer rotates leadership), equivocation
(transferable proof convicts and expels), and vote withholding (majority
certificate whose absent signature names the withholder).
"""

import collections
import contextlib
import dataclasses
import json
import random
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from repro.consensus import (
    EquivocationProof,
    LeaderSchedule,
    RoundCertificate,
    leader_index,
    output_body_digest,
    proposal_view_digest,
    quorum_size,
    rotation_base,
)
from repro.core.adversary import (
    EquivocatingLeader,
    StallingLeader,
    VoteForgingServer,
    VoteWithholdingServer,
)
from repro.core.config import Policy
from repro.core.rounds import RoundRecord, RoundStatus
from repro.core.session import DissentSession, build_keys
from repro.crypto import padding, schnorr
from repro.crypto.groups import group_by_name
from repro.crypto.keys import PrivateKey
from repro.core.accusation import Accusation, make_accusation
from repro.core.keyshuffle import (
    open_shuffle_submissions,
    shuffle_run_id,
    unpack_cipher_vector,
)
from repro.errors import (
    ConfigError,
    DissentError,
    InvalidProof,
    InvalidSignature,
    ProtocolError,
    ShuffleError,
    WireDecodeError,
)
from repro.net.message import LEADER_PROPOSE, SERVER_VOTE, make_envelope
from repro.net.runner import NetworkedSession
from repro.net.wire import encode_consensus_body
from repro.persist import read_audit_log
from repro.persist.codec import decode_record, encode_record
from repro.obs.propagate import TraceContext
from repro.util.serialization import pack_fields, unpack_fields
from tests.helpers import crypto_counters, global_counters
from tests.test_networked_session import build_matched_inprocess

SEED = 2012
N_SERVERS = 3
N_CLIENTS = 4
ROUNDS = 3

# Small retry budget => the node view timer (min(retry budget,
# barrier_timeout)) fires in ~0.3 s, so faulted runs recover quickly.
# The coordinator barrier stays generous (timeout=30) — it must outlast
# the view change, never race it.
FAST_VIEWS = dict(
    reconnect_attempts=2, reconnect_base_delay=0.1, reconnect_max_delay=0.2
)


def fast_policy(**kwargs):
    return Policy(**FAST_VIEWS, **kwargs)


def networked(**kwargs):
    kwargs.setdefault("num_servers", N_SERVERS)
    kwargs.setdefault("num_clients", N_CLIENTS)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("mode", "loopback")
    kwargs.setdefault("policy", fast_policy())
    kwargs.setdefault("timeout", 30.0)
    return NetworkedSession.build(**kwargs)


@contextlib.contextmanager
def driver_session(driver, server_factories=None):
    """The same group (keys, policy, node seeds) under any driver.

    ``"inprocess"`` mirrors ``NetworkedSession.build``'s RNG draws with
    the fast-view policy, so certificates and proofs are comparable
    byte for byte with the ``"loopback"`` / ``"tcp"`` runs.
    """
    if driver != "inprocess":
        with networked(mode=driver, server_factories=server_factories) as session:
            yield session
        return
    session = build_matched_inprocess(
        group_name=None,
        num_clients=N_CLIENTS,
        seed=SEED,
        server_factories=server_factories,
        policy=fast_policy(),
    )
    session.enable_telemetry()
    yield session


CONTROL_COUNTERS = (
    "session.votes_stripped",
    "session.servers_convicted",
    "session.view_changes_committed",
)


def control_plane(session, records):
    """Everything the control plane decided, in driver-independent form."""
    counters = session.metrics()["counters"]
    return SimpleNamespace(
        certificates=[
            (r.certificate.view, r.certificate.leader, r.certificate.voters)
            for r in records
        ],
        proofs=list(session.equivocation_proofs),
        convicted=sorted(session.convicted_servers),
        counters={name: counters.get(name, 0) for name in CONTROL_COUNTERS},
    )


def drive(session, rounds=ROUNDS):
    session.setup()
    for i in range(N_CLIENTS):
        session.post(i, f"certified payload {i}".encode())
    records = session.run_rounds(rounds)
    return records, session.delivered_messages(0)


def round0_leader(definition, excluded=()):
    return leader_index(
        definition.group_id(), len(excluded), 0, 0, definition.num_servers, excluded
    )


@pytest.fixture(scope="module")
def baseline():
    """No-fault loopback run every fault scenario must reproduce exactly."""
    with networked() as session:
        records, delivered = drive(session)
        return SimpleNamespace(
            records=records, delivered=delivered, definition=session.definition
        )


@pytest.fixture(scope="module")
def equivocation_run(baseline, tmp_path_factory):
    """One shared faulted run: equivocating round-0 leader, audit + checkpoint."""
    tmp = tmp_path_factory.mktemp("equivocation")
    audit = tmp / "audit.ndjson"
    leader = round0_leader(baseline.definition)
    with networked(
        server_factories={leader: (EquivocatingLeader, {})},
        audit_path=str(audit),
    ) as session:
        records, delivered = drive(session)
        checkpoint = tmp / "session.ckpt"
        session.checkpoint(checkpoint)
        return SimpleNamespace(
            records=records,
            delivered=delivered,
            convicted=sorted(session.convicted_servers),
            proofs=list(session.equivocation_proofs),
            metrics=session.metrics(),
            definition=session.definition,
            leader=leader,
            audit=audit,
            checkpoint=checkpoint,
        )


class TestRotation:
    GID = b"\x13" * 32

    def test_deterministic_and_view_advances_like_round(self):
        assert rotation_base(self.GID, 0) == rotation_base(self.GID, 0)
        assert rotation_base(self.GID, 0) != rotation_base(self.GID, 1)
        for r in range(5):
            for v in range(3):
                once = leader_index(self.GID, 0, r, v, 5)
                again = leader_index(self.GID, 0, r, v, 5)
                assert once == again
                # One slot per round, one more per view: a timed-out
                # leader is never retried within the round.
                assert leader_index(self.GID, 0, r, v + 1, 5) == leader_index(
                    self.GID, 0, r + 1, v, 5
                )

    def test_walks_entire_roster(self):
        leaders = {leader_index(self.GID, 0, r, 0, 5) for r in range(5)}
        assert leaders == set(range(5))

    def test_excluded_never_lead(self):
        excluded = {1, 3}
        for r in range(10):
            assert leader_index(self.GID, 2, r, 0, 5, excluded) not in excluded
        with pytest.raises(ProtocolError):
            leader_index(self.GID, 3, 0, 0, 3, {0, 1, 2})

    def test_schedule_wrapper_matches_free_function(self):
        schedule = LeaderSchedule(group_id=self.GID, num_servers=4)
        assert schedule.epoch == 0
        assert schedule.leader(7, view=2) == leader_index(self.GID, 0, 7, 2, 4)
        bumped = schedule.excluding(2)
        assert bumped.epoch == 1
        assert bumped.leader(0) == leader_index(self.GID, 1, 0, 0, 4, {2})


def count_calls(monkeypatch, target, key=lambda *args: None):
    """Tally calls to a function in every module ``from x import f`` bound it."""
    tally = collections.Counter()

    def counted(*args, **kwargs):
        tally[key(*args)] += 1
        return target(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, counted)
    return tally


def submitted_signatures(monkeypatch) -> set:
    """Every distinct signature check handed to ``schnorr`` from here on."""
    distinct = set()

    def one(key, message, signature, *rest):
        distinct.add((key.y, message, signature))

    def many(items, *rest):
        for item in items:
            one(*item)

    count_calls(monkeypatch, schnorr.verify, key=one)
    count_calls(monkeypatch, schnorr.batch_verify, key=many)
    return distinct


class TestInProcessConsensus:
    def test_honest_rounds_carry_full_view0_certificates(self):
        session = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        session.setup()
        session.post(0, b"certify me")
        record = session.run_round()
        cert = record.certificate
        assert cert is not None
        assert cert.view == 0
        assert cert.is_full(N_SERVERS)
        assert cert.voters == tuple(range(N_SERVERS))
        cert.verify(session.definition)
        assert cert.digest == output_body_digest(
            session.definition.group, record.output
        )
        # Certificates are audit metadata: record equality is unaffected,
        # so fault-run records can be compared against no-fault baselines.
        assert dataclasses.replace(record, certificate=None) == record

    @pytest.mark.parametrize("num_clients", [8, 32])
    def test_signature_work_of_a_certified_round(self, monkeypatch, num_clients):
        """What certificates cost, as work: 27 signatures at 8 clients, 51 at 32.

        A round is N + 6M + 1 signatures: each client's ciphertext; each
        server's inventory, commit, reveal, output signature, its envelope
        and a vote; one proposal.  M + 1 of them are the certificate
        exchange.  Every one is evaluated once — all but the M
        ``round-output`` carriers, which nobody opens in process — and
        every other check of it is answered from the memo: each of N
        clients re-checking the M output signatures, each of M servers
        re-checking four kinds of peer envelope, the proposal's second
        reader and the certificate's second verification.
        """
        session = DissentSession.build(
            num_servers=N_SERVERS,
            num_clients=num_clients,
            seed=SEED,
        )
        session.setup()
        session.post(0, b"certify me")
        signed = count_calls(monkeypatch, schnorr.sign)
        made = count_calls(
            monkeypatch, make_envelope, key=lambda key, msg_type, *rest: msg_type
        )
        with crypto_counters() as count:
            certificate = session.run_round().certificate
        assert certificate.view == 0 and certificate.is_full(N_SERVERS)
        assert signed[None] == num_clients + 6 * N_SERVERS + 1
        assert made[LEADER_PROPOSE] + made[SERVER_VOTE] == N_SERVERS + 1
        assert count("schnorr.checks") == signed[None] - N_SERVERS
        assert count("schnorr.memo_hits") == (
            N_SERVERS * (num_clients - 1)
            + 4 * N_SERVERS * (N_SERVERS - 1)
            + (N_SERVERS - 2)
            + N_SERVERS
        )

    @pytest.mark.parametrize(
        "driver, num_clients", [("inprocess", 32), ("loopback", 8)]
    )
    def test_schedule_work_of_a_certified_round(
        self, monkeypatch, driver, num_clients
    ):
        """Every one of the N + M members, and the coordinator decoding the
        session's delivery log, steps the slot schedule over the round's
        output; the process takes that step once and unmasks each open
        slot's padding once, not N + M + 1 times."""
        build = DissentSession.build if driver == "inprocess" else NetworkedSession.build
        session = build(
            num_servers=N_SERVERS,
            num_clients=num_clients,
            seed=SEED,
        )
        try:
            session.setup()
            for i in range(num_clients):
                session.post(i, b"slot %d" % i)
            session.run_round()  # every request bit set: all N slots open
            decoded = count_calls(monkeypatch, padding.decode)
            with global_counters("core.schedule") as count:
                record = session.run_round()
            assert record.certificate.is_full(N_SERVERS)
            assert count("steps") == 1
            assert count("step_hits") == num_clients + N_SERVERS
            assert decoded[None] == num_clients
        finally:
            if driver != "inprocess":
                session.close()

    def test_no_signature_is_evaluated_twice_in_process(self, monkeypatch):
        session = DissentSession.build(
            num_servers=N_SERVERS,
            num_clients=32,
            seed=SEED,
        )
        submitted = submitted_signatures(monkeypatch)
        with crypto_counters() as count:
            session.setup()
            session.post(0, b"once each")
            session.run_rounds(3)
        assert count("schnorr.checks") == len(submitted) > 3 * 32
        assert count("schnorr.memo_hits") > 2 * count("schnorr.checks")

    def test_no_signature_is_evaluated_twice_over_loopback(self, monkeypatch):
        submitted = submitted_signatures(monkeypatch)
        with crypto_counters() as count, NetworkedSession.build(
            num_servers=N_SERVERS, num_clients=8, seed=SEED
        ) as session:
            session.setup()
            session.post(0, b"once each")
            session.run_rounds(3)
        assert count("schnorr.checks") == len(submitted) > 3 * 8
        assert count("schnorr.memo_hits") > count("schnorr.checks")

    def test_a_second_build_with_the_same_seed_pays_full_price(self, monkeypatch):
        """Same seed, same keys, same (deterministic) signatures: without
        the reset in ``build_keys`` the second set-up would verify nothing."""
        spent = []
        for _ in range(2):
            with crypto_counters() as count:
                session = DissentSession.build(
                    num_servers=N_SERVERS,
                    num_clients=8,
                    seed=SEED,
                )
                session.setup()
                session.run_round()
            spent.append(
                (count("multiexp.calls"), count("schnorr.checks"), count("schnorr.memo_hits"))
            )
        assert spent[0] == spent[1]
        assert spent[0][0] > spent[0][1] > 0

    def test_equivocating_leader_convicted_and_rotated_out(self):
        probe = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        leader = round0_leader(probe.definition)
        session = build_matched_inprocess(
            num_clients=N_CLIENTS,
            seed=SEED,
            server_factories={leader: (EquivocatingLeader, {})},
        )
        session.setup()
        session.post(0, b"outlive the traitor")
        records = session.run_rounds(2)
        assert sorted(session.convicted_servers) == [leader]
        assert records[0].certificate.view == 1
        assert records[0].certificate.leader != leader
        # Epoch unchanged mid-session: round 1 re-runs the rotation with
        # the equivocator excluded.
        assert records[1].certificate.leader != leader
        [proof] = session.equivocation_proofs
        proof.verify(session.definition)
        assert proof.leader == leader

    def test_stalling_leader_handled_by_view_change(self):
        probe = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        leader = round0_leader(probe.definition)
        session = build_matched_inprocess(
            num_clients=N_CLIENTS,
            seed=SEED,
            server_factories={leader: (StallingLeader, {})},
        )
        session.setup()
        record = session.run_round()
        assert record.certificate.view == 1
        assert record.certificate.leader != leader
        assert session.convicted_servers == set()

    def test_vote_withholder_yields_partial_quorum_certificate(self):
        withholder = 1
        session = build_matched_inprocess(
            num_clients=N_CLIENTS,
            seed=SEED,
            server_factories={withholder: (VoteWithholdingServer, {})},
        )
        session.setup()
        record = session.run_round()
        cert = record.certificate
        assert not cert.is_full(N_SERVERS)
        assert len(cert.votes) == quorum_size(N_SERVERS)
        # The missing signature names the withholder.
        assert withholder not in cert.voters
        cert.verify(session.definition)


class TestCertificateCodec:
    @pytest.fixture(scope="class")
    def certified(self):
        session = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        session.setup()
        record = session.run_round()
        return session.definition, record.certificate

    def test_wire_round_trip(self, certified):
        definition, cert = certified
        group = definition.group
        clone = RoundCertificate.from_wire(group, cert.to_wire(group))
        assert clone.to_wire(group) == cert.to_wire(group)
        assert (clone.round_number, clone.view, clone.leader, clone.digest) == (
            cert.round_number,
            cert.view,
            cert.leader,
            cert.digest,
        )
        clone.verify(definition)

    def test_checkpoint_codec_round_trip(self, certified):
        definition, cert = certified
        group = definition.group
        # A checkpointed record carries its certificate in wire bytes.
        record = RoundRecord(0, RoundStatus.COMPLETED, 4, None, certificate=cert)
        encoded = encode_record(group, record)
        assert cert.to_wire(group) in encoded
        decoded = decode_record(group, encoded).certificate
        assert decoded.to_wire(group) == cert.to_wire(group)
        failed = RoundRecord(1, RoundStatus.FAILED, 1, None)
        assert decode_record(group, encode_record(group, failed)).certificate is None

    def test_tampering_is_rejected(self, certified):
        definition, cert = certified
        with pytest.raises(InvalidSignature):
            dataclasses.replace(cert, digest=b"\x00" * 32).verify(definition)
        with pytest.raises(InvalidSignature):
            dataclasses.replace(cert, round_number=cert.round_number + 1).verify(
                definition
            )
        with pytest.raises(InvalidProof):
            dataclasses.replace(cert, votes=cert.votes[:1]).verify(definition)
        with pytest.raises(InvalidProof):
            dataclasses.replace(cert, votes=tuple(reversed(cert.votes))).verify(
                definition
            )
        with pytest.raises(WireDecodeError):
            RoundCertificate.from_wire(definition.group, b"garbage")


def consensus_envelope(msg_type, body):
    key = PrivateKey.generate(group_by_name("test-256"), random.Random(7))
    return make_envelope(key, msg_type, "server-0", b"gid", 3, body)


class TestConsensusBody:
    DIGEST = bytes(range(32))

    def test_bytes_are_pinned(self):
        # Every vote signature covers these bytes: a change here
        # invalidates every stored certificate.
        assert encode_consensus_body(2, self.DIGEST).hex() == (
            "4900000001024200000020"
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )

    @pytest.mark.parametrize("msg_type", [LEADER_PROPOSE, SERVER_VOTE])
    def test_one_codec_for_proposals_and_votes(self, msg_type):
        body = encode_consensus_body(5, self.DIGEST)
        envelope = consensus_envelope(msg_type, body)
        assert proposal_view_digest(envelope) == (5, self.DIGEST)

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff",
            pack_fields(5),
            pack_fields(5, DIGEST, 6),
            pack_fields("5", DIGEST),
            pack_fields(5, DIGEST[:31]),
        ],
        ids=["unparseable", "one-field", "three-field", "text-view", "short-digest"],
    )
    def test_malformed_bodies_rejected(self, body):
        with pytest.raises(ProtocolError, match="consensus"):
            proposal_view_digest(consensus_envelope(SERVER_VOTE, body))


class TestEquivocationProof:
    @pytest.fixture(scope="class")
    def convicted(self):
        probe = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        leader = round0_leader(probe.definition)
        session = build_matched_inprocess(
            num_clients=N_CLIENTS,
            seed=SEED,
            server_factories={leader: (EquivocatingLeader, {})},
        )
        session.setup()
        session.run_round()
        [proof] = session.equivocation_proofs
        return session.definition, proof

    def test_transferable_to_a_party_that_never_ran_the_session(self, convicted):
        _, proof = convicted
        # Same group, fresh objects: verification needs only public data.
        bystander = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        proof.verify(bystander.definition)

    def test_checkpoint_codec_round_trip(self, convicted):
        definition, proof = convicted
        group = definition.group
        decoded = EquivocationProof.from_wire(group, proof.to_wire(group))
        decoded.verify(definition)
        assert decoded.to_wire(group) == proof.to_wire(group)

    def test_agreeing_proposals_prove_nothing(self, convicted):
        definition, proof = convicted
        with pytest.raises(InvalidProof):
            dataclasses.replace(proof, second=proof.first).verify(definition)

    def test_wrong_leader_rejected(self, convicted):
        definition, proof = convicted
        other = (proof.leader + 1) % definition.num_servers
        with pytest.raises(InvalidProof):
            dataclasses.replace(proof, leader=other).verify(definition)


#: What a mutation does to a field's type.
_RETYPED = {int: lambda v: str(v).encode(), bytes: len, str: str.encode}


def _field_mutations(data, items_from=None):
    """Every one-field mutation of packed ``data``, by name: each field
    dropped, retyped or (bytes) cut a byte short, the whole cut a byte
    short, a field appended.  Fields from ``items_from`` on are a list's
    items, and dropping one leaves a well-formed shorter list: not dropped."""
    fields = unpack_fields(data)
    found = {"truncate": data[:-1], "append": pack_fields(*fields, 0)}
    for i, value in enumerate(fields):
        head, tail = fields[:i], fields[i + 1 :]
        if items_from is None or i < items_from:
            found[f"drop {i}"] = pack_fields(*head, *tail)
        found[f"retype {i}"] = pack_fields(*head, _RETYPED[type(value)](value), *tail)
        if type(value) is bytes:
            found[f"shorten {i}"] = pack_fields(*head, value[:-1], *tail)
    return found


def _outcome(decode, data) -> str:
    """``"ok"`` or the class name of the ``DissentError`` decoding raised."""
    try:
        decode(data)
    except DissentError as exc:
        return type(exc).__name__
    return "ok"


class TestOwnerDecoderMutations:
    """Each packed protocol body is decoded by its owner through
    ``unpack_typed`` against one spec, and a malformed one is the owner's
    own ``WireDecodeError``: a field dropped, retyped or cut short, the
    body cut short, a field appended — signature, element and envelope
    bytes that do not decode included.  A mutated trace context reads as
    None; a mutated shuffle submission is a ``ShuffleError`` naming its
    sender."""

    @pytest.fixture(scope="class")
    def samples(self):
        probe = build_matched_inprocess(num_clients=N_CLIENTS, seed=SEED)
        leader = round0_leader(probe.definition)
        session = build_matched_inprocess(
            num_clients=N_CLIENTS,
            seed=SEED,
            server_factories={leader: (EquivocatingLeader, {})},
        )
        session.setup()
        certificate = session.run_round().certificate
        [proof] = session.equivocation_proofs
        group = session.definition.group
        purpose = b"dissent.accusation-shuffle|" + session.definition.group_id()
        _, publics = session._session_keys(purpose)
        submissions = [
            client.signed_scheduling_submission(publics, purpose)
            for client in session.clients
        ]
        pseudonym = PrivateKey.generate(group, random.Random(1))
        return SimpleNamespace(
            session=session,
            run_id=shuffle_run_id(purpose, publics),
            submissions=submissions,
            owners={
                # owner: (honest body, its decoder, where a list's items start)
                "consensus body": (
                    encode_consensus_body(2, bytes(32)),
                    lambda data: proposal_view_digest(
                        consensus_envelope(SERVER_VOTE, data)
                    ),
                    None,
                ),
                "certificate": (
                    certificate.to_wire(group),
                    partial(RoundCertificate.from_wire, group),
                    4,
                ),
                "equivocation proof": (
                    proof.to_wire(group),
                    partial(EquivocationProof.from_wire, group),
                    None,
                ),
                "accusation": (
                    make_accusation(pseudonym, group, 3, 1, 77).to_bytes(group),
                    partial(Accusation.from_bytes, group),
                    None,
                ),
                "cipher vector": (
                    unpack_fields(submissions[0].body)[1],
                    partial(unpack_cipher_vector, group),
                    0,
                ),
            },
        )

    @pytest.mark.parametrize(
        "owner",
        [
            "consensus body",
            "certificate",
            "equivocation proof",
            "accusation",
            "cipher vector",
        ],
    )
    def test_every_mutation_is_a_wire_decode_error(self, samples, owner):
        honest, decode, items_from = samples.owners[owner]
        decode(honest)
        mutations = _field_mutations(honest, items_from)
        if owner == "certificate":
            fields = unpack_fields(honest)
            for label, vote in _field_mutations(fields[4]).items():
                mutations[f"vote {label}"] = pack_fields(*fields[:4], vote, *fields[5:])
        outcomes = {label: _outcome(decode, data) for label, data in mutations.items()}
        assert set(outcomes.values()) == {"WireDecodeError"}, outcomes

    def test_a_mutated_trace_context_reads_as_none(self):
        honest = TraceContext("0123456789abcdef", "server-0/3", 5).to_bytes()
        assert TraceContext.from_bytes(honest) == TraceContext(
            "0123456789abcdef", "server-0/3", 5
        )
        for label, data in _field_mutations(honest).items():
            assert TraceContext.from_bytes(data) is None, label

    def test_a_mutated_shuffle_submission_names_its_sender(self, samples):
        definition = samples.session.definition
        key = samples.session.clients[1].key
        honest = samples.submissions[1]
        assert open_shuffle_submissions(
            definition, samples.submissions, samples.run_id
        )
        for label, body in _field_mutations(honest.body).items():
            envelopes = list(samples.submissions)
            envelopes[1] = make_envelope(
                key,
                honest.msg_type,
                honest.sender,
                honest.group_id,
                honest.round_number,
                body,
            )
            with pytest.raises(ShuffleError, match="client-1"):
                open_shuffle_submissions(definition, envelopes, samples.run_id)


class TestNetworkedFaults:
    def test_no_fault_run_certifies_every_round_at_view0(self, baseline):
        for record in baseline.records:
            cert = record.certificate
            assert cert.view == 0
            assert cert.is_full(N_SERVERS)
            cert.verify(baseline.definition)
            assert cert.digest == output_body_digest(
                baseline.definition.group, record.output
            )

    def test_equivocating_leader_expelled_outputs_unchanged(
        self, baseline, equivocation_run
    ):
        run = equivocation_run
        # Acceptance: the faulted session completes every round and its
        # records and cleartexts match the unfaulted baseline exactly.
        assert run.records == baseline.records
        assert run.delivered == baseline.delivered
        assert run.convicted == [run.leader]
        assert run.records[0].certificate.view == 1
        for record in run.records:
            assert record.certificate.leader != run.leader
            record.certificate.verify(run.definition)
        [proof] = run.proofs
        proof.verify(run.definition)
        assert proof.leader == run.leader
        counters = run.metrics["counters"]
        # Every server formed a cert per round; every server rotated past
        # the equivocator exactly once; one conviction committed.
        assert counters["consensus.certs_formed"] == N_SERVERS * ROUNDS
        assert counters["consensus.views_changed"] >= N_SERVERS
        assert counters["session.servers_convicted"] == 1
        assert counters["session.view_changes_committed"] == 1

    def test_equivocation_lands_in_audit_log(self, equivocation_run):
        entries = read_audit_log(equivocation_run.audit)
        events = [entry["event"] for entry in entries]
        assert "equivocation" in events
        assert "view_change" in events
        [conviction] = [e for e in entries if e["event"] == "equivocation"]
        assert conviction["data"]["leader"] == equivocation_run.leader

    def test_checkpoint_preserves_certificates_and_proofs(
        self, baseline, equivocation_run
    ):
        run = equivocation_run
        with NetworkedSession.restore(
            run.checkpoint, audit_path=str(run.audit)
        ) as restored:
            group = restored.definition.group
            assert len(restored.records) == len(run.records)
            for before, after in zip(run.records, restored.records):
                assert after.certificate.to_wire(group) == before.certificate.to_wire(
                    group
                )
                after.certificate.verify(restored.definition)
            assert sorted(restored.convicted_servers) == run.convicted
            [proof] = restored.equivocation_proofs
            proof.verify(restored.definition)
            assert proof.to_wire(group) == run.proofs[0].to_wire(group)
            # The expelled leader stays out of the rotation after restore.
            record = restored.run_round()
            assert record.certificate.leader != run.leader
            record.certificate.verify(restored.definition)
        # Satellite: the audit chain stays verifiable over the reopen —
        # expulsion evidence and post-restore events hash-chain together.
        events = [entry["event"] for entry in read_audit_log(run.audit)]
        assert "equivocation" in events
        assert "resume" in events

    def test_stalling_leader_recovered_by_view_change(self, baseline):
        leader = round0_leader(baseline.definition)
        with networked(
            server_factories={leader: (StallingLeader, {})}
        ) as session:
            records, delivered = drive(session)
            convicted = sorted(session.convicted_servers)
        assert records == baseline.records
        assert delivered == baseline.delivered
        assert convicted == []  # stalling is a liveness fault, not a crime
        assert records[0].certificate.view >= 1
        assert records[0].certificate.leader != leader

    def test_vote_withholder_cannot_halt_the_session(self, baseline):
        withholder = 1
        with networked(
            server_factories={withholder: (VoteWithholdingServer, {})}
        ) as session:
            records, delivered = drive(session)
        assert records == baseline.records
        assert delivered == baseline.delivered
        for record in records:
            cert = record.certificate
            assert len(cert.votes) == quorum_size(N_SERVERS)
            assert withholder not in cert.voters
            cert.verify(baseline.definition)


class TestVoteForging:
    @pytest.mark.parametrize("driver", ["inprocess", "loopback"])
    def test_forged_vote_is_stripped_and_the_round_commits(self, driver, baseline):
        """A vote with a bad signature must cost the session nothing, in
        any driver: the coordinator strips it and commits on the honest
        quorum (the parent's in-process driver died with InvalidSignature)."""
        forger = 1
        with driver_session(driver, {forger: (VoteForgingServer, {})}) as session:
            records, delivered = drive(session, rounds=1)
            plane = control_plane(session, records)
        assert records == baseline.records[:1]
        [certificate] = [r.certificate for r in records]
        certificate.verify(baseline.definition)
        assert certificate.voters == tuple(
            j for j in range(N_SERVERS) if j != forger
        )
        assert plane.counters["session.votes_stripped"] == 1


class TestCrossModeParity:
    @pytest.mark.parametrize(
        "adversary",
        [EquivocatingLeader, StallingLeader, VoteWithholdingServer, VoteForgingServer],
    )
    def test_adversaries_decide_identically_inprocess_and_loopback(
        self, adversary, baseline
    ):
        """One engine under both drivers: the same certificates, proofs,
        convictions and control-plane counters, whoever misbehaves."""
        factories = {round0_leader(baseline.definition): (adversary, {})}
        planes = {}
        for driver in ("inprocess", "loopback"):
            with driver_session(driver, factories) as session:
                records, delivered = drive(session)
                planes[driver] = control_plane(session, records)
            assert records == baseline.records
            assert delivered == baseline.delivered
        assert planes["inprocess"] == planes["loopback"]
        for proof in planes["inprocess"].proofs:
            proof.verify(baseline.definition)

    @pytest.mark.parametrize("mode", ["loopback", "tcp"])
    def test_no_fault_certificates_match_inprocess(self, mode):
        # group_name=None on both sides: the DISSENT_GROUP_BACKEND matrix
        # must steer the in-process and networked builds identically.
        inproc = build_matched_inprocess(
            group_name=None, num_clients=N_CLIENTS, seed=SEED
        )
        inproc.setup()
        inproc.post(0, b"parity across transports")
        expected = [inproc.run_round() for _ in range(2)]
        group = inproc.definition.group
        with NetworkedSession.build(
            num_servers=N_SERVERS, num_clients=N_CLIENTS, seed=SEED, mode=mode
        ) as session:
            session.setup()
            session.post(0, b"parity across transports")
            actual = [session.run_round() for _ in range(2)]
        assert actual == expected
        for mine, theirs in zip(actual, expected):
            assert mine.certificate.to_wire(group) == theirs.certificate.to_wire(
                group
            )
            assert mine.certificate.view == 0
            assert mine.certificate.is_full(N_SERVERS)

    def test_tcp_equivocating_leader_convicted(self, baseline):
        leader = round0_leader(baseline.definition)
        with networked(
            mode="tcp", server_factories={leader: (EquivocatingLeader, {})}
        ) as session:
            records, _ = drive(session, rounds=2)
            convicted = sorted(session.convicted_servers)
            proofs = list(session.equivocation_proofs)
        assert records == baseline.records[:2]
        assert convicted == [leader]
        assert records[0].certificate.view == 1
        [proof] = proofs
        proof.verify(baseline.definition)

    def test_subprocess_stalling_leader_recovered(self, baseline):
        leader = round0_leader(baseline.definition)
        with networked(
            mode="subprocess", server_factories={leader: (StallingLeader, {})}
        ) as session:
            records, _ = drive(session, rounds=2)
            convicted = sorted(session.convicted_servers)
        assert records == baseline.records[:2]
        assert convicted == []
        assert records[0].certificate.view >= 1


class TestBarrierTimeoutKnob:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Policy(barrier_timeout=0)
        with pytest.raises(ConfigError):
            Policy(barrier_timeout=-1.0)

    def test_serialization_round_trip(self):
        policy = Policy(barrier_timeout=42.5)
        data = policy.to_dict()
        assert data["barrier_timeout"] == 42.5
        assert Policy.from_dict(data) == policy

    def test_session_timeout_defaults_to_policy_knob(self):
        with networked(policy=fast_policy(barrier_timeout=9.0), timeout=None) as s:
            assert s.timeout == 9.0
        with networked(policy=fast_policy(barrier_timeout=9.0), timeout=3.0) as s:
            assert s.timeout == 3.0


class TestAuditReport:
    def test_unknown_event_kinds_are_listed_not_skipped(self):
        from repro.obs.report import audit_table

        rendered = audit_table(
            [
                {"event": "mystery", "data": {}},
                {"event": "view_change", "data": {"round": 0, "views": 1}},
            ]
        )
        assert "mystery" in rendered
        assert "view_change" in rendered

    def test_report_surfaces_consensus_events(
        self, equivocation_run, tmp_path, capsys
    ):
        from repro.obs.report import main

        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(json.dumps(equivocation_run.metrics))
        assert (
            main([str(snapshot), "--full", "--audit", str(equivocation_run.audit)])
            == 0
        )
        out = capsys.readouterr().out
        assert "audit log (hash chain verified)" in out
        assert "view_change" in out
        assert "equivocation" in out

    def test_usage_error(self, capsys):
        from repro.obs.report import main

        assert main([]) == 2
        assert main(["snap.json", "--audit"]) == 2
