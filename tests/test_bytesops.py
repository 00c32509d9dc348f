"""Unit tests for byte/bit utilities — the DC-net's arithmetic substrate."""

import pytest

from repro.util import bytesops as B


class TestXorBytes:
    def test_self_inverse(self):
        a, b = b"\x12\x34\x56", b"\xff\x00\xaa"
        assert B.xor_bytes(B.xor_bytes(a, b), b) == a

    def test_identity_with_zeros(self):
        a = b"\xde\xad\xbe\xef"
        assert B.xor_bytes(a, bytes(4)) == a

    def test_commutative(self):
        a, b = b"\x01\x02", b"\x03\x04"
        assert B.xor_bytes(a, b) == B.xor_bytes(b, a)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            B.xor_bytes(b"\x00", b"\x00\x00")

    def test_empty(self):
        assert B.xor_bytes(b"", b"") == b""

    def test_leading_zeros_preserved(self):
        a = b"\x00\x00\x01"
        b = b"\x00\x00\x01"
        assert B.xor_bytes(a, b) == b"\x00\x00\x00"


class TestXorMany:
    def test_pairs_cancel(self):
        ops = [b"\xaa\xbb", b"\x11\x22", b"\xaa\xbb", b"\x11\x22"]
        assert B.xor_many(ops) == b"\x00\x00"

    def test_single_operand(self):
        assert B.xor_many([b"\x42"]) == b"\x42"

    def test_empty_with_length(self):
        assert B.xor_many([], length=3) == b"\x00\x00\x00"

    def test_empty_without_length_raises(self):
        with pytest.raises(ValueError):
            B.xor_many([])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            B.xor_many([b"\x00\x00", b"\x00"])

    def test_generator_input(self):
        assert B.xor_many(bytes([i]) for i in range(4)) == bytes([0 ^ 1 ^ 2 ^ 3])

    @pytest.mark.parametrize(
        "offset, piece",
        [(0, b"\x81"), (3, b"\x0f\xf0"), (5, b"\x01\x02\x03"), (8, b""), (2, b"")],
    )
    def test_placed_operand_is_the_piece_padded_with_zeros(self, offset, piece):
        full = bytearray(8)
        full[offset : offset + len(piece)] = piece
        pad = bytes(range(0x10, 0x18))
        assert B.xor_many([(offset, piece)], length=8) == bytes(full)
        assert B.xor_many([pad, (offset, piece)]) == B.xor_bytes(pad, bytes(full))

    def test_placed_operands_overlap_by_xor(self):
        assert B.xor_many([(1, b"\xff\x0f"), (2, b"\xff")], length=4) == b"\x00\xff\xf0\x00"

    @pytest.mark.parametrize("offset, piece", [(-1, b"\x00"), (7, b"\x00\x00"), (9, b"")])
    def test_placed_operand_outside_the_length_raises(self, offset, piece):
        with pytest.raises(ValueError, match="outside"):
            B.xor_many([(offset, piece)], length=8)

    def test_placed_operand_needs_a_length(self):
        with pytest.raises(ValueError, match="length"):
            B.xor_many([(0, b"\x01"), b"\x00\x00"])


class TestBitOps:
    def test_get_bit_msb_first(self):
        # 0x80 = bit 0 set; 0x01 = bit 7 set.
        assert B.get_bit(b"\x80", 0) == 1
        assert B.get_bit(b"\x01", 7) == 1
        assert B.get_bit(b"\x01", 0) == 0

    def test_get_bit_second_byte(self):
        assert B.get_bit(b"\x00\x80", 8) == 1

    def test_get_bit_out_of_range(self):
        with pytest.raises(IndexError):
            B.get_bit(b"\x00", 8)

    def test_set_bit_roundtrip(self):
        data = bytes(4)
        for index in (0, 7, 8, 31):
            assert B.get_bit(B.set_bit(data, index, 1), index) == 1

    def test_set_bit_clear(self):
        data = b"\xff"
        assert B.set_bit(data, 3, 0) == bytes([0b11101111])

    def test_set_bit_bad_value(self):
        with pytest.raises(ValueError):
            B.set_bit(b"\x00", 0, 2)

    def test_set_bit_does_not_mutate(self):
        data = bytes(2)
        B.set_bit(data, 5, 1)
        assert data == bytes(2)

    def test_flip_bit_twice_is_identity(self):
        data = b"\x5a\xa5"
        assert B.flip_bit(B.flip_bit(data, 9), 9) == data

    def test_flip_bit_changes_exactly_one(self):
        data = bytes(3)
        flipped = B.flip_bit(data, 13)
        diffs = [i for i in range(24) if B.get_bit(flipped, i) != B.get_bit(data, i)]
        assert diffs == [13]


class TestHelpers:
    def test_bit_length_to_bytes(self):
        assert B.bit_length_to_bytes(0) == 0
        assert B.bit_length_to_bytes(1) == 1
        assert B.bit_length_to_bytes(8) == 1
        assert B.bit_length_to_bytes(9) == 2

    def test_bit_length_negative(self):
        with pytest.raises(ValueError):
            B.bit_length_to_bytes(-1)

    def test_zero_bytes(self):
        assert B.zero_bytes(5) == b"\x00" * 5

    def test_hamming_weight(self):
        assert B.hamming_weight(b"\x00\x00") == 0
        assert B.hamming_weight(b"\xff") == 8
        assert B.hamming_weight(b"\x0f\xf0") == 8

    def test_first_difference_none(self):
        assert B.first_difference(b"\xab\xcd", b"\xab\xcd") is None

    def test_first_difference_position(self):
        a = bytes(2)
        b = B.flip_bit(a, 11)
        assert B.first_difference(a, b) == 11

    def test_first_difference_earliest(self):
        a = bytes(2)
        b = B.flip_bit(B.flip_bit(a, 3), 12)
        assert B.first_difference(a, b) == 3
