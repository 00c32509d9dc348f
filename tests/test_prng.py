"""Unit tests for the keyed PRNG streams (the DC-net coins)."""

import hashlib

import pytest

from repro.crypto import prng
from repro.util.bytesops import get_bit


def _reference_pair_stream(secret: bytes, round_number: int, length: int) -> bytes:
    """The pre-cache derivation: absorb everything into a fresh SHAKE-128."""
    xof = hashlib.shake_128()
    xof.update(b"dissent.pair-stream.v2")
    xof.update(len(secret).to_bytes(4, "big"))
    xof.update(secret)
    xof.update(round_number.to_bytes(8, "big"))
    return xof.digest(length)


class TestKnownAnswers:
    def test_pair_stream_vector(self):
        # Pins the XOF and the domain tag: a change here changes every
        # ciphertext, and needs the wire and checkpoint versions bumped.
        assert prng.pair_stream(b"\x01" * 32, 7, 48).hex() == (
            "7a44ce050c5ad8e3c9fdb70c77722abc98e90b20"
            "da46d870f73fb77da992bcce43068f6449c92d0a"
            "272b719fc45cd89b"
        )

    def test_seeded_stream_is_unchanged(self):
        # The §3.9 padding stream is part of every cleartext: these bytes
        # were recorded before pair pads moved to SHAKE-128 and must never
        # move with them.
        assert prng.seeded_stream(b"dissent padding seed", 48).hex() == (
            "b1a6c144eca06c2a3691f6f999157bf08b07c49c"
            "69f6c41defc4bebb806ecd5816d9212936bfb764"
            "f508d0efb27278d6"
        )
        assert hashlib.sha256(prng.seeded_stream(b"\x00" * 16, 1 << 16)).hexdigest() == (
            "6abd633501470d84ed8dd092e93f5df09e3936555ec1c3c5761b9a347184e779"
        )


class TestPairStream:
    def test_deterministic(self):
        s = b"\x01" * 32
        assert prng.pair_stream(s, 3, 100) == prng.pair_stream(s, 3, 100)

    def test_round_separation(self):
        s = b"\x01" * 32
        assert prng.pair_stream(s, 1, 64) != prng.pair_stream(s, 2, 64)

    def test_secret_separation(self):
        assert prng.pair_stream(b"a" * 32, 0, 64) != prng.pair_stream(b"b" * 32, 0, 64)

    def test_prefix_property(self):
        # Stream of length n is a prefix of the stream of length n+k: this
        # is what makes single-bit recomputation during tracing valid.
        s = b"\x07" * 32
        long = prng.pair_stream(s, 5, 256)
        assert prng.pair_stream(s, 5, 64) == long[:64]

    def test_zero_length(self):
        assert prng.pair_stream(b"x" * 32, 0, 0) == b""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            prng.pair_stream(b"x" * 32, 0, -1)

    def test_roughly_balanced(self):
        stream = prng.pair_stream(b"balance" * 4, 9, 4096)
        ones = sum(bin(byte).count("1") for byte in stream)
        assert 0.45 < ones / (8 * 4096) < 0.55

    def test_cached_state_matches_fresh_absorption(self):
        # The pre-absorbed per-secret SHAKE-128 state (copied per round)
        # must reproduce the absorb-everything derivation exactly.
        secrets = [b"\x00" * 32, b"k" * 32, b"", b"short", b"x" * 131]
        for secret in secrets:
            for round_number in (0, 1, 7, 2**40):
                for length in (0, 1, 31, 257):
                    assert prng.pair_stream(
                        secret, round_number, length
                    ) == _reference_pair_stream(secret, round_number, length)

    def test_cache_eviction_keeps_streams_correct(self):
        # Blow through the LRU bound; evicted secrets must re-derive the
        # same bytes when they come back.
        probe = b"probe-secret" * 2
        before = prng.pair_stream(probe, 3, 64)
        for i in range(prng._PAIR_STATE_CACHE_MAX + 8):
            prng.pair_stream(b"filler-%d" % i, 0, 1)
        assert probe not in prng._pair_states
        assert prng.pair_stream(probe, 3, 64) == before

    def test_interleaved_rounds_do_not_corrupt_state(self):
        # copy() must leave the cached base state untouched.
        s = b"\x42" * 32
        a1 = prng.pair_stream(s, 1, 33)
        a2 = prng.pair_stream(s, 2, 33)
        assert prng.pair_stream(s, 1, 33) == a1
        assert prng.pair_stream(s, 2, 33) == a2


class TestPairStreamBit:
    def test_matches_full_stream(self):
        s = b"\x33" * 32
        stream = prng.pair_stream(s, 12, 32)
        for k in range(8 * 32):
            assert prng.pair_stream_bit(s, 12, k) == get_bit(stream, k)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            prng.pair_stream_bit(b"x" * 32, 0, -1)


class TestSeededStream:
    def test_deterministic(self):
        assert prng.seeded_stream(b"seed", 48) == prng.seeded_stream(b"seed", 48)

    def test_domain_separated_from_pair_stream(self):
        # Same bytes as key/seed must not produce the same stream.
        s = b"k" * 32
        assert prng.seeded_stream(s, 64) != prng.pair_stream(s, 0, 64)

    def test_length_exact(self):
        assert len(prng.seeded_stream(b"s", 17)) == 17


class TestCacheHygiene:
    def test_clear_pair_state_cache_drops_secrets(self):
        s = b"\x5a" * 32
        before = prng.pair_stream(s, 1, 32)
        assert s in prng._pair_states
        prng.clear_pair_state_cache()
        assert not prng._pair_states
        assert prng.pair_stream(s, 1, 32) == before  # re-derives identically

