"""Unit tests for commitments and Fiat-Shamir challenges."""

import pytest

from repro.crypto import hashing as H


class TestCommit:
    def test_verify_roundtrip(self):
        digest = H.sha256(b"server ciphertext bytes")
        assert H.verify_commit(H.commit(digest), digest)

    def test_wrong_payload_fails(self):
        commitment = H.commit(H.sha256(b"original"))
        assert not H.verify_commit(commitment, H.sha256(b"tampered"))

    def test_commit_deterministic(self):
        assert H.commit(H.sha256(b"x")) == H.commit(H.sha256(b"x"))

    def test_commit_digest_width(self):
        assert len(H.commit(H.sha256(b"anything"))) == H.DIGEST_BYTES

    def test_domain_separated_from_plain_hash(self):
        digest = H.sha256(b"data")
        assert H.commit(digest) != H.sha256(digest)

    def test_binds_the_payload_digest(self):
        # C_j = H("dissent.commit.v2" || sha256(s_j)): the digest a reveal
        # envelope's signature covers opens the commitment.
        payload = b"s_j" * 1000
        assert H.commit(H.sha256(payload)) == H.sha256(
            b"dissent.commit.v2", H.sha256(payload)
        )


class TestChallengeScalar:
    def test_in_range(self):
        order = 2**127 - 1
        for i in range(20):
            c = H.challenge_scalar(order, bytes([i]))
            assert 0 <= c < order

    def test_deterministic(self):
        assert H.challenge_scalar(997, b"a", b"b") == H.challenge_scalar(997, b"a", b"b")

    def test_sensitive_to_every_part(self):
        base = H.challenge_scalar(2**61 - 1, b"a", b"b")
        assert base != H.challenge_scalar(2**61 - 1, b"a", b"c")
        assert base != H.challenge_scalar(2**61 - 1, b"a")

    def test_part_boundaries_matter(self):
        # ("ab", "") vs ("a", "b") must differ: length-prefixed hashing.
        assert H.challenge_scalar(10**9, b"ab", b"") != H.challenge_scalar(10**9, b"a", b"b")

    def test_tiny_order_rejected(self):
        with pytest.raises(ValueError):
            H.challenge_scalar(1, b"x")


class TestGroupId:
    def test_stable(self):
        assert H.group_definition_id(b"defn") == H.group_definition_id(b"defn")

    def test_distinct(self):
        assert H.group_definition_id(b"a") != H.group_definition_id(b"b")
