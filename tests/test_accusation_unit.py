"""Unit tests for accusation records, rebuttals, and validation."""

import pytest

from repro.core.accusation import (
    Accusation,
    RoundEvidence,
    accusation_max_bytes,
    make_accusation,
    make_rebuttal,
    validate_accusation,
    verify_accusation,
    verify_rebuttal,
)
from repro.crypto.keys import PrivateKey
from repro.errors import AccusationError, WireDecodeError
from repro.util.bytesops import set_bit


class TestAccusationRecord:
    def test_sign_verify(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        accusation = make_accusation(pseudonym, group, 7, 2, 99)
        assert verify_accusation(pseudonym.public, accusation)

    def test_wrong_pseudonym_fails(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        other = PrivateKey.generate(group, rng)
        accusation = make_accusation(pseudonym, group, 7, 2, 99)
        assert not verify_accusation(other.public, accusation)

    def test_bytes_roundtrip(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        accusation = make_accusation(pseudonym, group, 12, 0, 1234)
        parsed = Accusation.from_bytes(group, accusation.to_bytes(group))
        assert parsed == accusation

    def test_malformed_bytes_rejected(self, group):
        with pytest.raises(WireDecodeError):
            Accusation.from_bytes(group, b"garbage")

    def test_max_bytes_bound_holds(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        accusation = make_accusation(pseudonym, group, 2**62, 2**31, 2**62)
        assert len(accusation.to_bytes(group)) <= accusation_max_bytes(group)


class TestRebuttal:
    def test_valid_rebuttal(self, group, rng):
        client = PrivateKey.generate(group, rng)
        server = PrivateKey.generate(group, rng)
        rebuttal = make_rebuttal(client, server.public, 1)
        assert verify_rebuttal(group, client.public, server.public, rebuttal)

    def test_rebuttal_wrong_server_fails(self, group, rng):
        client = PrivateKey.generate(group, rng)
        server = PrivateKey.generate(group, rng)
        other = PrivateKey.generate(group, rng)
        rebuttal = make_rebuttal(client, server.public, 1)
        assert not verify_rebuttal(group, client.public, other.public, rebuttal)

    def test_forged_element_fails(self, group, rng):
        import dataclasses

        client = PrivateKey.generate(group, rng)
        server = PrivateKey.generate(group, rng)
        rebuttal = make_rebuttal(client, server.public, 0)
        forged = dataclasses.replace(rebuttal, dh_element=group.random_element(rng))
        assert not verify_rebuttal(group, client.public, server.public, forged)


class TestValidateAccusation:
    def _evidence(self, cleartext, slot_ranges):
        return RoundEvidence(
            round_number=5,
            final_list=(0, 1),
            assignment={0: 0, 1: 0},
            server_ciphertexts=[cleartext],
            cleartext=cleartext,
            total_bytes=len(cleartext),
            slot_bit_ranges=slot_ranges,
        )

    def test_accepts_valid(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        cleartext = set_bit(bytes(8), 20, 1)
        evidence = self._evidence(cleartext, {0: (16, 64)})
        accusation = make_accusation(pseudonym, group, 5, 0, 20)
        validate_accusation(evidence, [pseudonym.public], accusation)

    def test_rejects_zero_bit(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        evidence = self._evidence(bytes(8), {0: (16, 64)})
        accusation = make_accusation(pseudonym, group, 5, 0, 20)
        with pytest.raises(AccusationError):
            validate_accusation(evidence, [pseudonym.public], accusation)

    def test_rejects_bit_outside_slot(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        cleartext = set_bit(bytes(8), 2, 1)
        evidence = self._evidence(cleartext, {0: (16, 64)})
        accusation = make_accusation(pseudonym, group, 5, 0, 2)
        with pytest.raises(AccusationError):
            validate_accusation(evidence, [pseudonym.public], accusation)

    def test_rejects_wrong_round(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        cleartext = set_bit(bytes(8), 20, 1)
        evidence = self._evidence(cleartext, {0: (16, 64)})
        accusation = make_accusation(pseudonym, group, 6, 0, 20)
        with pytest.raises(AccusationError):
            validate_accusation(evidence, [pseudonym.public], accusation)

    def test_rejects_forged_signature(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        impostor = PrivateKey.generate(group, rng)
        cleartext = set_bit(bytes(8), 20, 1)
        evidence = self._evidence(cleartext, {0: (16, 64)})
        accusation = make_accusation(impostor, group, 5, 0, 20)
        with pytest.raises(AccusationError):
            validate_accusation(evidence, [pseudonym.public], accusation)

    def test_rejects_closed_slot(self, group, rng):
        pseudonym = PrivateKey.generate(group, rng)
        cleartext = set_bit(bytes(8), 20, 1)
        evidence = self._evidence(cleartext, {})
        accusation = make_accusation(pseudonym, group, 5, 0, 20)
        with pytest.raises(AccusationError):
            validate_accusation(evidence, [pseudonym.public], accusation)
