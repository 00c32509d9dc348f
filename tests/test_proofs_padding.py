"""Unit tests for ZK proofs and the randomized padding scheme."""

import pytest

from repro.crypto import padding, proofs
from repro.crypto.keys import PrivateKey
from repro.errors import InvalidProof, PaddingError


class TestSchnorrPok:
    def test_prove_verify(self, group, rng):
        x = group.random_scalar(rng)
        proof = proofs.prove_dlog(group, x)
        assert proofs.verify_dlog(group, group.exp(group.g, x), proof)

    def test_wrong_statement_fails(self, group, rng):
        x = group.random_scalar(rng)
        proof = proofs.prove_dlog(group, x)
        assert not proofs.verify_dlog(group, group.exp(group.g, x + 1), proof)

    def test_context_binding(self, group, rng):
        x = group.random_scalar(rng)
        proof = proofs.prove_dlog(group, x, context=b"phase-1")
        y = group.exp(group.g, x)
        assert proofs.verify_dlog(group, y, proof, context=b"phase-1")
        assert not proofs.verify_dlog(group, y, proof, context=b"phase-2")

    def test_non_element_statement_fails(self, group, rng):
        proof = proofs.prove_dlog(group, group.random_scalar(rng))
        assert not proofs.verify_dlog(group, group.p - 1, proof)


class TestChaumPedersen:
    def test_prove_verify(self, group, rng):
        x = group.random_scalar(rng)
        h = group.random_element(rng)
        proof = proofs.prove_dleq(group, x, h)
        assert proofs.verify_dleq(
            group, group.exp(group.g, x), h, group.exp(h, x), proof
        )

    def test_unequal_logs_fail(self, group, rng):
        x = group.random_scalar(rng)
        h = group.random_element(rng)
        proof = proofs.prove_dleq(group, x, h)
        wrong_v = group.exp(h, x + 1)
        assert not proofs.verify_dleq(group, group.exp(group.g, x), h, wrong_v, proof)

    def test_tampered_proof_fails(self, group, rng):
        x = group.random_scalar(rng)
        h = group.random_element(rng)
        proof = proofs.prove_dleq(group, x, h)
        bad = proofs.DleqProof(proof.t1, proof.t2, (proof.s + 1) % group.q)
        assert not proofs.verify_dleq(group, group.exp(group.g, x), h, group.exp(h, x), bad)

    def test_context_binding(self, group, rng):
        x = group.random_scalar(rng)
        h = group.random_element(rng)
        proof = proofs.prove_dleq(group, x, h, context=b"rebuttal")
        u, v = group.exp(group.g, x), group.exp(h, x)
        assert proofs.verify_dleq(group, u, h, v, proof, context=b"rebuttal")
        assert not proofs.verify_dleq(group, u, h, v, proof, context=b"strip")

    def test_require_dleq_raises(self, group, rng):
        x = group.random_scalar(rng)
        h = group.random_element(rng)
        proof = proofs.prove_dleq(group, x, h)
        with pytest.raises(InvalidProof):
            proofs.require_dleq(group, group.exp(group.g, x + 1), h, group.exp(h, x), proof)

    def test_dh_rebuttal_shape(self, group, rng):
        # The accusation rebuttal instantiation: u = client pub, h = server
        # pub, v = shared DH element.
        client = PrivateKey.generate(group, rng)
        server = PrivateKey.generate(group, rng)
        shared = group.exp(server.y, client.x)
        proof = proofs.prove_dleq(group, client.x, server.y)
        assert proofs.verify_dleq(group, client.y, server.y, shared, proof)


class TestPadding:
    def test_roundtrip(self):
        for message in (b"", b"x", b"hello world", bytes(1000)):
            assert padding.decode(padding.encode(message)) == message

    def test_length_arithmetic(self):
        assert padding.padded_length(100) == 100 + padding.OVERHEAD
        assert padding.max_message_length(padding.padded_length(100)) == 100

    def test_max_message_length_small_slot(self):
        assert padding.max_message_length(3) == 0

    def test_encoding_randomized(self):
        assert padding.encode(b"same") != padding.encode(b"same")

    def test_explicit_seed_deterministic(self):
        seed = b"\x05" * padding.SEED_BYTES
        assert padding.encode(b"m", seed) == padding.encode(b"m", seed)

    def test_bad_seed_width(self):
        with pytest.raises(PaddingError):
            padding.encode(b"m", seed=b"short")

    def test_corruption_detected_everywhere(self):
        from repro.util.bytesops import flip_bit

        encoded = padding.encode(b"sensitive payload")
        for bit in range(0, 8 * len(encoded), 37):
            assert not padding.is_intact(flip_bit(encoded, bit))

    def test_truncation_detected(self):
        with pytest.raises(PaddingError):
            padding.decode(padding.encode(b"abc")[:-1])

    def test_too_short_rejected(self):
        with pytest.raises(PaddingError):
            padding.decode(b"\x00" * (padding.OVERHEAD - 1))

    def test_masked_payload_differs_from_message(self):
        message = b"\x00" * 64
        encoded = padding.encode(message)
        assert encoded[padding.OVERHEAD:] != message  # masked, not cleartext


class TestDisjunctiveDleq:
    """The CDS94 OR-composition Verdict's verifiable ciphertexts ride on."""

    def _statements(self, group, rng):
        """An ElGamal-identity branch and a slot-key branch (Verdict shape)."""
        combined = group.random_element(rng)
        r = group.random_scalar(rng)
        identity_branch = (group.exp(group.g, r), combined, group.exp(combined, r))
        slot_secret = group.random_scalar(rng)
        slot_branch = proofs.dlog_statement(group, group.exp(group.g, slot_secret))
        return identity_branch, r, slot_branch, slot_secret

    def test_either_branch_proves(self, group, rng):
        st_a, wit_a, st_b, wit_b = self._statements(group, rng)
        for index, witness in ((0, wit_a), (1, wit_b)):
            proof = proofs.prove_dleq_or(
                group, (st_a, st_b), index, witness, b"ctx", rng
            )
            assert proofs.verify_dleq_or(group, (st_a, st_b), proof, b"ctx")

    def test_transcript_hides_the_real_branch(self, group, rng):
        """Both transcripts have identical shape and verify identically."""
        st_a, wit_a, st_b, wit_b = self._statements(group, rng)
        via_a = proofs.prove_dleq_or(group, (st_a, st_b), 0, wit_a, b"c", rng)
        via_b = proofs.prove_dleq_or(group, (st_a, st_b), 1, wit_b, b"c", rng)
        for proof in (via_a, via_b):
            assert proofs.verify_dleq_or(group, (st_a, st_b), proof, b"c")
            assert {type(v) for v in (proof.c1, proof.s1, proof.s2)} == {int}

    def test_one_false_branch_still_proves(self, group, rng):
        st_a, _, st_b, wit_b = self._statements(group, rng)
        # Garble branch A so it is false; branch B's witness still suffices.
        false_a = (st_a[0], st_a[1], group.mul(st_a[2], group.g))
        proof = proofs.prove_dleq_or(group, (false_a, st_b), 1, wit_b, b"x", rng)
        assert proofs.verify_dleq_or(group, (false_a, st_b), proof, b"x")

    def test_no_witness_cannot_forge(self, group, rng):
        st_a, _, st_b, _ = self._statements(group, rng)
        false_a = (st_a[0], st_a[1], group.mul(st_a[2], group.g))
        # A wrong witness for either branch yields an invalid transcript.
        bogus = group.random_scalar(rng)
        for index in (0, 1):
            proof = proofs.prove_dleq_or(
                group, (false_a, st_b), index, bogus, b"x", rng
            )
            assert not proofs.verify_dleq_or(group, (false_a, st_b), proof, b"x")

    def test_context_binding(self, group, rng):
        st_a, wit_a, st_b, _ = self._statements(group, rng)
        proof = proofs.prove_dleq_or(group, (st_a, st_b), 0, wit_a, b"here", rng)
        assert not proofs.verify_dleq_or(group, (st_a, st_b), proof, b"elsewhere")

    def test_challenge_split_checked(self, group, rng):
        st_a, wit_a, st_b, _ = self._statements(group, rng)
        proof = proofs.prove_dleq_or(group, (st_a, st_b), 0, wit_a, b"s", rng)
        # Shifting challenge mass between branches breaks the equations.
        shifted = proofs.DleqOrProof(
            proof.t11, proof.t12, proof.t21, proof.t22,
            (proof.c1 + 1) % group.q, proof.s1, proof.s2,
        )
        assert not proofs.verify_dleq_or(group, (st_a, st_b), shifted, b"s")

    def test_out_of_range_scalars_rejected(self, group, rng):
        st_a, wit_a, st_b, _ = self._statements(group, rng)
        proof = proofs.prove_dleq_or(group, (st_a, st_b), 0, wit_a, b"s", rng)
        broken = proofs.DleqOrProof(
            proof.t11, proof.t12, proof.t21, proof.t22,
            proof.c1, proof.s1 + group.q, proof.s2,
        )
        assert not proofs.verify_dleq_or(group, (st_a, st_b), broken, b"s")

    def test_invalid_known_index_raises(self, group, rng):
        st_a, wit_a, st_b, _ = self._statements(group, rng)
        with pytest.raises(InvalidProof):
            proofs.prove_dleq_or(group, (st_a, st_b), 2, wit_a)

    def test_dlog_statement_degenerates_to_pok(self, group, rng):
        x = group.random_scalar(rng)
        y = group.exp(group.g, x)
        statement = proofs.dlog_statement(group, y)
        assert statement == (y, group.g, y)


class TestBatchVerification:
    """RLC batches must agree bit-for-bit with per-proof verification."""

    def _dleq_items(self, group, rng, n):
        items = []
        for i in range(n):
            x = group.random_scalar(rng)
            h = group.random_element(rng)
            context = b"batch-%d" % i
            proof = proofs.prove_dleq(group, x, h, context)
            items.append((group.exp(group.g, x), h, group.exp(h, x), proof, context))
        return items

    def _or_items(self, group, rng, n):
        items = []
        for i in range(n):
            combined = group.random_element(rng)
            r = group.random_scalar(rng)
            st_a = (group.exp(group.g, r), combined, group.exp(combined, r))
            secret = group.random_scalar(rng)
            st_b = proofs.dlog_statement(group, group.exp(group.g, secret))
            context = b"or-%d" % i
            index = i % 2
            witness = r if index == 0 else secret
            proof = proofs.prove_dleq_or(
                group, (st_a, st_b), index, witness, context, rng
            )
            items.append(((st_a, st_b), proof, context))
        return items

    def test_valid_dleq_batch_accepts(self, group, rng):
        items = self._dleq_items(group, rng, 6)
        assert proofs.batch_verify_dleq(group, items, rng=rng)
        assert proofs.find_invalid_dleq(group, items, rng=rng) == ()

    def test_empty_batches_accept(self, group, rng):
        assert proofs.batch_verify_dleq(group, [], rng=rng)
        assert proofs.batch_verify_dleq_or(group, [], rng=rng)
        assert proofs.find_invalid_dleq(group, [], rng=rng) == ()
        assert proofs.find_invalid_dleq_or(group, [], rng=rng) == ()

    def test_single_bad_dleq_caught_and_isolated(self, group, rng):
        items = self._dleq_items(group, rng, 5)
        u, h, v, proof, context = items[2]
        items[2] = (u, h, group.mul(v, group.g), proof, context)
        assert not proofs.batch_verify_dleq(group, items, rng=rng)
        assert proofs.find_invalid_dleq(group, items, rng=rng) == (2,)

    def test_culprit_set_matches_per_proof_dleq(self, group, rng):
        items = self._dleq_items(group, rng, 9)
        for bad in (0, 4, 8):
            u, h, v, proof, context = items[bad]
            items[bad] = (
                u, h, v,
                proofs.DleqProof(proof.t1, proof.t2, (proof.s + 1) % group.q),
                context,
            )
        per_proof = tuple(
            i
            for i, (u, h, v, proof, context) in enumerate(items)
            if not proofs.verify_dleq(group, u, h, v, proof, context)
        )
        assert per_proof == (0, 4, 8)
        assert proofs.find_invalid_dleq(group, items, rng=rng) == per_proof

    def test_valid_or_batch_accepts(self, group, rng):
        items = self._or_items(group, rng, 6)
        assert proofs.batch_verify_dleq_or(group, items, rng=rng)
        assert proofs.find_invalid_dleq_or(group, items, rng=rng) == ()

    def test_culprit_set_matches_per_proof_or(self, group, rng):
        items = self._or_items(group, rng, 8)
        for bad in (1, 6):
            statements, proof, context = items[bad]
            broken = proofs.DleqOrProof(
                proof.t11, proof.t12, proof.t21, proof.t22,
                (proof.c1 + 1) % group.q, proof.s1, proof.s2,
            )
            items[bad] = (statements, broken, context)
        per_proof = tuple(
            i
            for i, (statements, proof, context) in enumerate(items)
            if not proofs.verify_dleq_or(group, statements, proof, context)
        )
        assert per_proof == (1, 6)
        assert proofs.find_invalid_dleq_or(group, items, rng=rng) == per_proof

    def test_all_bad_batch_names_everyone(self, group, rng):
        items = self._dleq_items(group, rng, 4)
        items = [
            (u, h, group.mul(v, group.g), proof, context)
            for (u, h, v, proof, context) in items
        ]
        assert proofs.find_invalid_dleq(group, items, rng=rng) == (0, 1, 2, 3)

    def test_structural_failure_rejects_batch(self, group, rng):
        items = self._dleq_items(group, rng, 3)
        u, h, v, proof, context = items[1]
        bad = proofs.DleqProof(proof.t1, proof.t2, proof.s + group.q)
        items[1] = (u, h, v, bad, context)
        assert not proofs.batch_verify_dleq(group, items, rng=rng)
        assert proofs.find_invalid_dleq(group, items, rng=rng) == (1,)

    def test_hot_bases_do_not_change_verdicts(self, group, rng):
        h = group.random_element(rng)
        items = []
        for i in range(4):
            x = group.random_scalar(rng)
            proof = proofs.prove_dleq(group, x, h, b"hot")
            items.append((group.exp(group.g, x), h, group.exp(h, x), proof, b"hot"))
        with group.pin((h,)):
            assert proofs.batch_verify_dleq(group, items, rng=rng)

    def test_tiny_group_coefficients_stay_in_range(self, tiny, rng):
        """Coefficient width clamps below q for toy groups."""
        items = []
        for i in range(3):
            x = tiny.random_scalar(rng)
            h = tiny.random_element(rng)
            proof = proofs.prove_dleq(tiny, x, h, b"t")
            items.append((tiny.exp(tiny.g, x), h, tiny.exp(h, x), proof, b"t"))
        assert proofs.batch_verify_dleq(tiny, items, rng=rng)
