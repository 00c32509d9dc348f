"""Unit tests for signatures, key pairs, DH, and ElGamal."""

import pytest

from repro.crypto import dh, elgamal, schnorr
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import CryptoError, InvalidCiphertext, InvalidSignature


class TestKeys:
    def test_public_matches_private(self, group, rng):
        key = PrivateKey.generate(group, rng)
        assert key.public.y == group.exp(group.g, key.x)

    def test_scalar_out_of_range_rejected(self, group):
        with pytest.raises(ValueError):
            PrivateKey(group, 0)
        with pytest.raises(ValueError):
            PrivateKey(group, group.q)

    def test_public_key_validates_element(self, group):
        with pytest.raises(CryptoError):
            PublicKey(group, group.p - 1)

    def test_public_key_bytes_roundtrip(self, keypair, group):
        data = keypair.public.to_bytes()
        assert PublicKey.from_bytes(group, data).y == keypair.y

    def test_fingerprint_stable_and_short(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 8


class TestSchnorrSignatures:
    def test_sign_verify(self, keypair):
        sig = schnorr.sign(keypair, b"message")
        assert schnorr.verify(keypair.public, b"message", sig)

    def test_wrong_message_fails(self, keypair):
        sig = schnorr.sign(keypair, b"message")
        assert not schnorr.verify(keypair.public, b"messagX", sig)

    def test_wrong_key_fails(self, group, keypair, rng):
        other = PrivateKey.generate(group, rng)
        sig = schnorr.sign(keypair, b"m")
        assert not schnorr.verify(other.public, b"m", sig)

    def test_signatures_deterministic(self, keypair):
        # RFC 6979-style nonces: same key + message => same signature.
        assert schnorr.sign(keypair, b"m") == schnorr.sign(keypair, b"m")

    def test_nonce_commitment_never_repeats_across_messages(self, keypair):
        # The footgun deterministic nonces prevent: a repeated t with two
        # distinct challenges leaks the private key.  Distinct messages
        # must always get distinct commitments.
        commitments = [
            schnorr.sign(keypair, b"message-%d" % i).t for i in range(64)
        ]
        assert len(set(commitments)) == len(commitments)

    def test_distinct_keys_distinct_nonces(self, group, keypair, rng):
        other = PrivateKey.generate(group, rng)
        assert schnorr.sign(keypair, b"m").t != schnorr.sign(other, b"m").t

    def test_out_of_range_components_fail(self, group, keypair):
        sig = schnorr.sign(keypair, b"m")
        bad = schnorr.Signature(sig.t, group.q)
        assert not schnorr.verify(keypair.public, b"m", bad)

    def test_non_element_commitment_fails(self, group, keypair):
        sig = schnorr.sign(keypair, b"m")
        bad = schnorr.Signature(group.p - 1, sig.s)  # QNR: not in subgroup
        assert not schnorr.verify(keypair.public, b"m", bad)

    def test_bytes_roundtrip(self, group, keypair):
        sig = schnorr.sign(keypair, b"m")
        data = sig.to_bytes(group)
        assert schnorr.Signature.from_bytes(group, data) == sig

    def test_bytes_wrong_width(self, group):
        with pytest.raises(InvalidSignature):
            schnorr.Signature.from_bytes(group, b"\x00" * 3)

    def test_require_valid_raises(self, keypair):
        sig = schnorr.sign(keypair, b"m")
        with pytest.raises(InvalidSignature):
            schnorr.require_valid(keypair.public, b"other", sig)

    def test_empty_message(self, keypair):
        sig = schnorr.sign(keypair, b"")
        assert schnorr.verify(keypair.public, b"", sig)


class TestSchnorrBatchVerify:
    def _items(self, group, rng, count):
        keys = [PrivateKey.generate(group, rng) for _ in range(count)]
        return [
            (key.public, b"msg-%d" % i, schnorr.sign(key, b"msg-%d" % i))
            for i, key in enumerate(keys)
        ]

    def test_all_valid_accepts(self, group, rng):
        assert schnorr.batch_verify(self._items(group, rng, 8))

    def test_empty_batch_accepts(self):
        assert schnorr.batch_verify([])
        assert schnorr.find_invalid([]) == ()

    def test_single_item_degrades_to_scalar(self, group, rng):
        items = self._items(group, rng, 1)
        assert schnorr.batch_verify(items)
        key, message, sig = items[0]
        bad = [(key, b"other", sig)]
        assert not schnorr.batch_verify(bad)
        assert schnorr.find_invalid(bad) == (0,)

    def test_forged_signature_rejected_and_isolated(self, group, rng):
        items = self._items(group, rng, 16)
        key, _, sig = items[5]
        items[5] = (key, b"forged message", sig)
        assert not schnorr.batch_verify(items)
        assert schnorr.find_invalid(items, known_failed=True) == (5,)

    def test_multiple_culprits_all_named(self, group, rng):
        items = self._items(group, rng, 12)
        for i in (2, 9):
            key, _, sig = items[i]
            items[i] = (key, b"tampered", sig)
        assert schnorr.find_invalid(items) == (2, 9)

    def test_verdicts_match_scalar_path(self, group, rng):
        items = self._items(group, rng, 10)
        key, _, sig = items[3]
        items[3] = (key, b"evil", sig)
        scalar = tuple(
            i for i, item in enumerate(items) if not schnorr.verify(*item)
        )
        assert schnorr.find_invalid(items) == scalar

    def test_hot_bases_do_not_change_verdicts(self, group, rng):
        items = self._items(group, rng, 6)
        with group.pin(key.y for key, _, _ in items):
            assert schnorr.batch_verify(items)
            key, _, sig = items[0]
            items[0] = (key, b"x", sig)
            assert not schnorr.batch_verify(items)
            assert schnorr.find_invalid(items) == (0,)


class TestDiffieHellman:
    def test_symmetry(self, group, rng):
        a, b = PrivateKey.generate(group, rng), PrivateKey.generate(group, rng)
        assert dh.shared_secret(a, b.public) == dh.shared_secret(b, a.public)

    def test_distinct_pairs_distinct_secrets(self, group, rng):
        a, b, c = (PrivateKey.generate(group, rng) for _ in range(3))
        assert dh.shared_secret(a, b.public) != dh.shared_secret(a, c.public)

    def test_secret_width(self, group, rng):
        a, b = PrivateKey.generate(group, rng), PrivateKey.generate(group, rng)
        assert len(dh.shared_secret(a, b.public)) == 32

    def test_element_matches_secret(self, group, rng):
        a, b = PrivateKey.generate(group, rng), PrivateKey.generate(group, rng)
        element = dh.shared_element(a, b.public)
        assert dh.secret_from_element(group, element) == dh.shared_secret(a, b.public)

    def test_cross_group_rejected(self, group, tiny, rng):
        a = PrivateKey.generate(group, rng)
        b = PrivateKey.generate(tiny, rng)
        with pytest.raises(CryptoError):
            dh.shared_secret(a, b.public)

    def test_bad_element_rejected(self, group):
        with pytest.raises(CryptoError):
            dh.secret_from_element(group, group.p - 1)


class TestElGamal:
    def test_encrypt_decrypt(self, group, keypair, rng):
        m = group.random_element(rng)
        assert elgamal.decrypt(keypair, elgamal.encrypt(keypair.public, m)) == m

    def test_randomized(self, group, keypair, rng):
        m = group.random_element(rng)
        assert elgamal.encrypt(keypair.public, m) != elgamal.encrypt(keypair.public, m)

    def test_explicit_randomness_deterministic(self, group, keypair, rng):
        m = group.random_element(rng)
        r = group.random_scalar(rng)
        assert elgamal.encrypt(keypair.public, m, r) == elgamal.encrypt(keypair.public, m, r)

    def test_non_element_plaintext_rejected(self, group, keypair):
        with pytest.raises(CryptoError):
            elgamal.encrypt(keypair.public, group.p - 1)

    def test_ciphertext_bytes_roundtrip(self, group, keypair, rng):
        ct = elgamal.encrypt(keypair.public, group.random_element(rng))
        assert elgamal.Ciphertext.from_bytes(group, ct.to_bytes(group)) == ct

    def test_ciphertext_bad_bytes(self, group):
        with pytest.raises(InvalidCiphertext):
            elgamal.Ciphertext.from_bytes(group, b"\x00")

    def test_layered_any_strip_order(self, group, rng):
        keys = [PrivateKey.generate(group, rng) for _ in range(4)]
        m = group.random_element(rng)
        ct = elgamal.encrypt_layered([k.public for k in keys], m)
        for key in reversed(keys):  # strip in reverse order: still works
            ct = elgamal.strip_layer(key, ct)
        assert elgamal.final_plaintext(group, ct) == m

    def test_combined_key_is_product(self, group, rng):
        keys = [PrivateKey.generate(group, rng) for _ in range(3)]
        combined = elgamal.combined_key([k.public for k in keys])
        expected = 1
        for k in keys:
            expected = group.mul(expected, k.y)
        assert combined.y == expected

    def test_combined_key_empty_rejected(self):
        with pytest.raises(InvalidCiphertext):
            elgamal.combined_key([])

    def test_rerandomize_preserves_plaintext(self, group, keypair, rng):
        m = group.random_element(rng)
        ct = elgamal.encrypt(keypair.public, m)
        ct2, r = elgamal.rerandomize(keypair.public, ct)
        assert ct2 != ct
        assert elgamal.decrypt(keypair, ct2) == m

    def test_rerandomize_with_zero_layers_left(self, group, rng):
        # Rerandomizing under a combined key then stripping still decodes.
        keys = [PrivateKey.generate(group, rng) for _ in range(2)]
        publics = [k.public for k in keys]
        m = group.random_element(rng)
        ct = elgamal.encrypt_layered(publics, m)
        ct, _ = elgamal.rerandomize(elgamal.combined_key(publics), ct)
        for key in keys:
            ct = elgamal.strip_layer(key, ct)
        assert elgamal.final_plaintext(group, ct) == m
