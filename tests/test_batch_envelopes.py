"""Adversarial tests for batched envelope signature verification.

The contract under test: batching is a pure performance optimization —
accept/reject decisions and blame are bit-identical to verifying every
envelope one at a time, for forged signatures, replays, and degenerate
batch sizes alike.
"""

import dataclasses
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import crypto_counters, fresh_session
from repro.crypto import schnorr
from repro.crypto.groups import default_group_name, group_by_name
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import InvalidSignature, ShuffleError
from repro.net.message import (
    CLIENT_CIPHERTEXT,
    batch_verify_envelopes,
    make_envelope,
    require_envelopes_valid,
)


def session_group():
    """The group sessions default to: CI's modp1536 leg runs this file on it."""
    return group_by_name(default_group_name())


def _envelope_batch(count, seed=5):
    """``count`` well-signed client envelopes under distinct keys."""
    group = session_group()
    rng = random.Random(seed)
    keys = [PrivateKey.generate(group, rng) for _ in range(count)]
    items = []
    for i, key in enumerate(keys):
        envelope = make_envelope(
            key, CLIENT_CIPHERTEXT, f"client-{i}", b"gid", 4, b"body-%d" % i
        )
        items.append((envelope, key.public))
    return items


def _signature_checks(items):
    """The ``schnorr`` batch items behind ``(envelope, key)`` pairs."""
    return [
        (key, envelope.signed_payload(), envelope.signature)
        for envelope, key in items
    ]


class TestBatchVerifyEnvelopes:
    def test_clean_batch_accepts(self):
        assert batch_verify_envelopes(_envelope_batch(12)) == ()

    def test_one_forgery_in_32_bisected_to_exact_sender(self):
        items = _envelope_batch(32)
        envelope, key = items[17]
        items[17] = (dataclasses.replace(envelope, body=b"forged"), key)
        assert batch_verify_envelopes(items) == (17,)

    def test_multiple_forgeries_all_named(self):
        items = _envelope_batch(32)
        for i in (0, 13, 31):
            envelope, key = items[i]
            items[i] = (dataclasses.replace(envelope, body=b"forged"), key)
        assert batch_verify_envelopes(items) == (0, 13, 31)

    def test_blame_matches_scalar_verification_exactly(self):
        rng = random.Random(99)
        for _ in range(5):
            items = _envelope_batch(16, seed=rng.randrange(1 << 30))
            bad = set(rng.sample(range(16), rng.randrange(0, 5)))
            for i in bad:
                envelope, key = items[i]
                items[i] = (
                    dataclasses.replace(envelope, round_number=9),
                    key,
                )
            scalar = tuple(
                i
                for i, (envelope, key) in enumerate(items)
                if not schnorr.verify(
                    key, envelope.signed_payload(), envelope.signature
                )
            )
            assert batch_verify_envelopes(items) == scalar == tuple(sorted(bad))

    def test_empty_batch(self):
        assert batch_verify_envelopes([]) == ()

    def test_single_envelope_degrades_to_scalar(self):
        items = _envelope_batch(1)
        assert batch_verify_envelopes(items) == ()
        envelope, key = items[0]
        assert batch_verify_envelopes(
            [(dataclasses.replace(envelope, sender="client-9"), key)]
        ) == (0,)

    def test_require_envelopes_valid_names_sender(self):
        items = _envelope_batch(8)
        envelope, key = items[3]
        items[3] = (dataclasses.replace(envelope, body=b"evil"), key)
        with pytest.raises(InvalidSignature, match="client-3"):
            require_envelopes_valid(items)


class CountingRandom(random.Random):
    """Counts the batch coefficients drawn from it."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


@pytest.fixture
def counters():
    """``read(name)`` of the ``crypto.schnorr.*`` counters while the test runs."""
    with crypto_counters() as read:
        yield lambda name: read(f"schnorr.{name}")


class TestAcceptedMemo:
    """Remembering what was accepted changes no verdict, only the work."""

    ITEMS = 12

    @pytest.fixture(scope="class")
    def batch(self):
        return _envelope_batch(self.ITEMS, seed=23)

    @settings(max_examples=30, deadline=None)
    @given(
        seen=st.sets(st.integers(0, ITEMS - 1)),
        bad=st.sets(st.integers(0, ITEMS - 1), max_size=4),
        hot=st.booleans(),
    )
    def test_culprits_are_the_scalar_culprits_whatever_was_seen_before(
        self, batch, seen, bad, hot
    ):
        items = [
            (dataclasses.replace(envelope, round_number=9), key) if i in bad
            else (envelope, key)
            for i, (envelope, key) in enumerate(batch)
        ]  # fmt: skip
        hot_bases = tuple(key.y for _, key in items) if hot else ()
        schnorr.forget_accepted()
        scalar = tuple(
            i
            for i, (envelope, key) in enumerate(items)
            if not schnorr.verify(key, envelope.signed_payload(), envelope.signature)
        )
        assert scalar == tuple(sorted(bad))
        schnorr.forget_accepted()
        for i in sorted(seen):
            envelope, key = items[i]
            assert schnorr.verify(
                key, envelope.signed_payload(), envelope.signature
            ) == (i not in bad)
        assert batch_verify_envelopes(items, hot_bases=hot_bases) == scalar
        assert batch_verify_envelopes(items, hot_bases=hot_bases) == scalar

    def test_nothing_but_the_exact_tuple_is_remembered(self, batch):
        (envelope, key), (_, other_key) = batch[:2]
        message, signature = envelope.signed_payload(), envelope.signature
        schnorr.forget_accepted()
        assert schnorr.verify(key, message, signature)
        assert schnorr.verify(key, message, signature)
        group = key.group
        assert not schnorr.verify(other_key, message, signature)
        assert not schnorr.verify(key, message + b"!", signature)
        for forged in (
            dataclasses.replace(signature, s=(signature.s + 1) % group.q),
            dataclasses.replace(signature, t=group.mul(signature.t, group.g)),
        ):
            assert not schnorr.verify(key, message, forged)
            assert batch_verify_envelopes(
                [(dataclasses.replace(envelope, signature=forged), key), batch[1]]
            ) == (0,)

    def test_a_signature_remembered_in_one_group_is_not_valid_in_another(self):
        group = session_group()
        wider = next(
            candidate
            for candidate in map(group_by_name, ("test-512", "modp2048"))
            if candidate.element_bytes > group.element_bytes
        )
        rng = random.Random(77)
        # A key and commitment that are also elements of the wider group,
        # so over there the equation itself is what says no.
        while True:
            key = PrivateKey.generate(group, rng)
            signature = schnorr.sign(key, b"here only")
            if wider.is_element(key.y) and wider.is_element(signature.t):
                break
        schnorr.forget_accepted()
        assert schnorr.verify(key.public, b"here only", signature)
        assert not schnorr.verify(PublicKey(wider, key.y), b"here only", signature)

    def test_rejections_are_evaluated_every_time_and_signing_records_nothing(
        self, counters
    ):
        key = PrivateKey.generate(session_group(), random.Random(3))
        schnorr.forget_accepted()
        signature = schnorr.sign(key, b"signed here")
        forged = dataclasses.replace(signature, s=(signature.s + 1) % key.group.q)
        for attempt in range(1, 4):
            assert not schnorr.verify(key.public, b"signed here", forged)
            assert (counters("checks"), counters("memo_hits")) == (attempt, 0)
        # The signer's own process still pays for the first verification.
        for hits in range(3):
            assert schnorr.verify(key.public, b"signed here", signature)
            assert (counters("checks"), counters("memo_hits")) == (4, hits)

    def test_the_memo_is_bounded_and_evicts_oldest_first(self, monkeypatch, counters):
        monkeypatch.setattr(schnorr, "ACCEPTED_MEMO_ENTRIES", 8)
        key = PrivateKey.generate(session_group(), random.Random(4))
        signed = [
            (key.public, b"message %d" % i, schnorr.sign(key, b"message %d" % i))
            for i in range(20)
        ]
        schnorr.forget_accepted()
        assert schnorr.batch_verify(signed[:13])
        for item in signed[13:]:
            assert schnorr.verify(*item)
        assert (counters("checks"), counters("memo_hits")) == (20, 0)
        # Newest first: the eight newest are held; the ninth is a miss whose
        # own entry pushes out the oldest survivor, and so on down.
        for item in reversed(signed):
            assert schnorr.verify(*item)
        assert (counters("checks"), counters("memo_hits")) == (32, 8)

    def test_threads_on_overlapping_items_agree_and_raise_nothing(self, monkeypatch):
        monkeypatch.setattr(schnorr, "ACCEPTED_MEMO_ENTRIES", 4)  # evict constantly
        key = PrivateKey.generate(session_group(), random.Random(6))
        work = []
        for i in range(10):
            signature = schnorr.sign(key, b"shared %d" % i)
            if i % 3 == 0:
                signature = dataclasses.replace(
                    signature, s=(signature.s + 1) % key.group.q
                )
            work.append((key.public, b"shared %d" % i, signature, i % 3 != 0))
        errors = []

        def hammer(offset):
            try:
                for step in range(60):
                    public, message, signature, valid = work[(offset + step) % 10]
                    if schnorr.verify(public, message, signature) != valid:
                        errors.append((offset, step))
                    if step % 7 == offset:
                        schnorr.batch_verify([item[:3] for item in work[1:3]])
                    if step % 20 == offset:
                        schnorr.forget_accepted()
            except Exception as exc:  # the assertion below reports it
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
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

    def test_one_coefficient_per_signature_that_enters_the_product(self, batch):
        sig_items = _signature_checks(batch[:8])
        schnorr.forget_accepted()
        assert schnorr.batch_verify(sig_items[:3])
        rng = CountingRandom(5)
        assert schnorr.batch_verify(sig_items, rng=rng)
        assert rng.draws == 5
        assert schnorr.batch_verify(sig_items, rng=rng)
        assert rng.draws == 5

    def test_small_hot_batches_draw_no_coefficient_at_all(self, batch):
        """Up to the backend's ``hot_batch_max`` pending hot-key items are
        checked one equation at a time; one more (where the backend has a
        limit at all), or one cold key, and it is a product."""
        limit = min(batch[0][1].group.hot_batch_max, self.ITEMS - 1)
        sig_items = _signature_checks(batch[: limit + 1])
        hot = tuple(key.y for key, _, _ in sig_items)
        cases = [(limit, hot, 0), (limit, hot[1:], limit)]
        if limit < self.ITEMS - 1:
            cases.append((limit + 1, hot, limit + 1))
        for size, hot_bases, draws in cases:
            schnorr.forget_accepted()
            rng = CountingRandom(5)
            assert schnorr.batch_verify(sig_items[:size], hot_bases=hot_bases, rng=rng)
            assert rng.draws == draws
        # What matters is how many are pending, not how many were handed in.
        rng = CountingRandom(5)
        schnorr.forget_accepted()
        assert schnorr.verify(*sig_items[0])
        assert schnorr.batch_verify(sig_items, hot_bases=hot, rng=rng)
        assert rng.draws == 0


class TestServerBatchAccept:
    def test_forged_submission_rejected_others_kept(self):
        session = fresh_session(seed=41)
        server = session.servers[0]
        state = server.open_round(0)
        envelopes = [
            session.clients[i].produce_ciphertext(0)
            for i in range(session.definition.num_clients)
        ]
        envelopes[2] = dataclasses.replace(
            envelopes[2], body=bytes(len(envelopes[2].body))
        )
        verdicts = server.accept_ciphertexts(state, envelopes)
        assert verdicts == [True, True, False, True, True]
        assert sorted(state.received) == [0, 1, 3, 4]

    def test_replayed_stale_round_envelope_rejected(self):
        # A validly signed envelope from round 0 replayed into round 1 is
        # screened out by its round number before any signature work.
        session = fresh_session(seed=42)
        session.run_round()
        stale = session.clients[0].produce_ciphertext(0)  # signs round 0
        server = session.servers[0]
        state = server.open_round(1)
        fresh = session.clients[1].produce_ciphertext(1)
        assert server.accept_ciphertexts(state, [stale, fresh]) == [False, True]
        assert sorted(state.received) == [1]

    def test_empty_batch_is_noop(self):
        session = fresh_session(seed=43)
        server = session.servers[0]
        state = server.open_round(0)
        assert server.accept_ciphertexts(state, []) == []
        assert state.received == {}

    def test_forged_peer_commitment_names_server(self):
        session = fresh_session(seed=44)
        servers = session.servers
        states = [s.open_round(0) for s in servers]
        pairs = list(zip(servers, states))
        for i, client in enumerate(session.clients):
            servers[i % 3].accept_ciphertexts(
                states[i % 3], [client.produce_ciphertext(0)]
            )
        inventories = [s.make_inventory(state) for s, state in pairs]
        for s, state in pairs:
            s.receive_inventories(state, inventories)
        commits = [s.compute_ciphertext(state) for s, state in pairs]
        commits[1] = dataclasses.replace(commits[1], body=b"\x00" * 32)
        with pytest.raises(InvalidSignature, match="server-1"):
            servers[0].receive_commitments(states[0], commits)


class TestShuffleSubmissionBatch:
    @staticmethod
    def _shuffle_setup(session, purpose):
        from repro.core.keyshuffle import make_session_key, verify_session_keys

        session_keys = []
        for j, server in enumerate(session.servers):
            _, sk = make_session_key(server.key, j, purpose)
            session_keys.append(sk)
        return verify_session_keys(session.definition, session_keys, purpose)

    def test_forged_shuffle_submission_named(self):
        from repro.core.keyshuffle import open_shuffle_submissions, shuffle_run_id

        session = fresh_session(seed=45)
        purpose = b"dissent.key-shuffle|" + session.definition.group_id()
        publics = self._shuffle_setup(session, purpose)
        run_id = shuffle_run_id(purpose, publics)
        envelopes = [
            client.signed_scheduling_submission(publics, purpose)
            for client in session.clients
        ]
        sane = open_shuffle_submissions(session.definition, envelopes, run_id)
        assert len(sane) == session.definition.num_clients
        envelopes[4] = dataclasses.replace(envelopes[4], body=envelopes[3].body)
        with pytest.raises(ShuffleError, match="client-4"):
            open_shuffle_submissions(session.definition, envelopes, run_id)

    def test_malformed_body_attributed_to_signer(self):
        # A validly signed but undecodable body must raise a ShuffleError
        # naming the sender, not escape as an unattributed crypto error.
        from repro.core.keyshuffle import (
            SCHEDULING_ROUND,
            SHUFFLE_SUBMISSION,
            open_shuffle_submissions,
            shuffle_run_id,
        )
        from repro.util.serialization import pack_fields

        session = fresh_session(seed=47)
        purpose = b"dissent.key-shuffle|" + session.definition.group_id()
        publics = self._shuffle_setup(session, purpose)
        run_id = shuffle_run_id(purpose, publics)
        envelopes = [
            client.signed_scheduling_submission(publics, purpose)
            for client in session.clients
        ]
        bad_client = session.clients[2]
        envelopes[2] = make_envelope(
            bad_client.key,
            SHUFFLE_SUBMISSION,
            bad_client.name,
            bad_client.group_id,
            SCHEDULING_ROUND,
            pack_fields(run_id, pack_fields(b"\x00" * 10)),
        )
        with pytest.raises(ShuffleError, match="client-2"):
            open_shuffle_submissions(session.definition, envelopes, run_id)

    def test_wrong_type_body_attributed_but_a_bug_propagates(self, monkeypatch):
        # A body field of the wrong type is a malformed submission; an
        # exception no decoder names is a bug and must not read as one.
        from repro.core import keyshuffle
        from repro.util.serialization import pack_fields

        session = fresh_session(seed=48)
        purpose = b"dissent.key-shuffle|" + session.definition.group_id()
        publics = self._shuffle_setup(session, purpose)
        run_id = keyshuffle.shuffle_run_id(purpose, publics)
        envelopes = [
            client.signed_scheduling_submission(publics, purpose)
            for client in session.clients
        ]
        bad_client = session.clients[1]
        wrong_type = list(envelopes)
        wrong_type[1] = make_envelope(
            bad_client.key,
            keyshuffle.SHUFFLE_SUBMISSION,
            bad_client.name,
            bad_client.group_id,
            keyshuffle.SCHEDULING_ROUND,
            pack_fields(run_id, 7),
        )
        with pytest.raises(ShuffleError, match="client-1"):
            keyshuffle.open_shuffle_submissions(session.definition, wrong_type, run_id)

        def bug(group, data):
            raise RuntimeError("a bug in the decoder")

        monkeypatch.setattr(keyshuffle, "unpack_cipher_vector", bug)
        with pytest.raises(RuntimeError, match="a bug"):
            keyshuffle.open_shuffle_submissions(session.definition, envelopes, run_id)

    def test_submission_from_previous_run_rejected(self):
        # The group id and purpose repeat across sessions of one group;
        # the ephemeral mix keys do not.  A validly signed submission
        # captured in run A must not open in run B.
        from repro.core.keyshuffle import open_shuffle_submissions, shuffle_run_id

        session = fresh_session(seed=46)
        purpose = b"dissent.key-shuffle|" + session.definition.group_id()
        old_publics = self._shuffle_setup(session, purpose)
        stale = session.clients[0].signed_scheduling_submission(
            old_publics, purpose
        )
        new_publics = self._shuffle_setup(session, purpose)
        new_run = shuffle_run_id(purpose, new_publics)
        envelopes = [stale] + [
            client.signed_scheduling_submission(new_publics, purpose)
            for client in session.clients[1:]
        ]
        with pytest.raises(ShuffleError, match="different run"):
            open_shuffle_submissions(session.definition, envelopes, new_run)
