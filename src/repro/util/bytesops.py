"""Byte-string and bit-level operations used throughout the DC-net.

DC-nets are XOR machines: every ciphertext, pseudo-random pad, and cleartext
is a byte string of the round's exact length, and correctness rests on XOR
cancellation.  These helpers centralize the operations so the protocol code
never hand-rolls bit arithmetic.

Bit indexing convention: bit ``k`` of a byte string is bit ``7 - (k % 8)``
of byte ``k // 8`` — i.e. most-significant-bit-first within each byte, the
natural order when reading a transmission left to right.  The accusation
protocol (witness bits) and the slot scheduler both rely on this order.

XOR is implemented via Python's arbitrary-precision integers.  The XOR
itself is the cheap part — 0.03 ms for 512 KiB on the development box —
and the conversions around it are not: ``int.from_bytes`` 0.35 ms and
``to_bytes`` 0.36 ms for the same 512 KiB.  :func:`xor_many` converts each
operand once and the result once, so it is conversion-bound at about
1.2-1.5 GB/s of operand; that is the stdlib floor under the bulk
workload's ``util.bytesops.xor_ms`` (the library imports nothing outside
the standard library, so there is no numpy path to compare).
"""

from __future__ import annotations

from collections.abc import Iterable


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    Raises:
        ValueError: if the operands differ in length.  Length mismatches in
            a DC-net always indicate a protocol bug, never a condition to
            silently pad over.
    """
    if len(a) != len(b):
        raise ValueError(f"xor_bytes length mismatch: {len(a)} != {len(b)}")
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def xor_many(operands: Iterable[bytes], length: int | None = None) -> bytes:
    """XOR any number of equal-length byte strings.

    Args:
        operands: byte strings to combine.  May be empty if ``length`` given.
        length: expected operand length; inferred from the first operand if
            omitted.

    Returns:
        The XOR of all operands (all-zero string when ``operands`` is empty).
    """
    acc = 0
    n = length
    for op in operands:
        if n is None:
            n = len(op)
        elif len(op) != n:
            raise ValueError(f"xor_many length mismatch: {len(op)} != {n}")
        acc ^= int.from_bytes(op, "big")
    if n is None:
        raise ValueError("xor_many needs at least one operand or a length")
    return acc.to_bytes(n, "big")


def get_bit(data: bytes, index: int) -> int:
    """Return bit ``index`` (0 or 1) of ``data``, MSB-first within bytes."""
    if not 0 <= index < 8 * len(data):
        raise IndexError(f"bit index {index} out of range for {len(data)} bytes")
    return (data[index // 8] >> (7 - (index % 8))) & 1


def set_bit(data: bytes, index: int, value: int) -> bytes:
    """Return a copy of ``data`` with bit ``index`` set to ``value``."""
    if value not in (0, 1):
        raise ValueError(f"bit value must be 0 or 1, got {value}")
    if not 0 <= index < 8 * len(data):
        raise IndexError(f"bit index {index} out of range for {len(data)} bytes")
    buf = bytearray(data)
    mask = 1 << (7 - (index % 8))
    if value:
        buf[index // 8] |= mask
    else:
        buf[index // 8] &= ~mask
    return bytes(buf)


def flip_bit(data: bytes, index: int) -> bytes:
    """Return a copy of ``data`` with bit ``index`` inverted.

    This is the disruptor's primitive: XORing a 1 into someone else's slot.
    """
    if not 0 <= index < 8 * len(data):
        raise IndexError(f"bit index {index} out of range for {len(data)} bytes")
    buf = bytearray(data)
    buf[index // 8] ^= 1 << (7 - (index % 8))
    return bytes(buf)


def bit_length_to_bytes(bits: int) -> int:
    """Number of bytes needed to hold ``bits`` bits (ceiling division)."""
    if bits < 0:
        raise ValueError("bit count must be non-negative")
    return (bits + 7) // 8


def zero_bytes(n: int) -> bytes:
    """An all-zero byte string of length ``n``."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return bytes(n)


def hamming_weight(data: bytes) -> int:
    """Number of 1 bits in ``data``."""
    return int.from_bytes(data, "big").bit_count()


def first_difference(a: bytes, b: bytes) -> int | None:
    """Index of the first bit where ``a`` and ``b`` differ, or None if equal.

    Used by disruption victims to locate candidate witness bits: the first
    position where the round output disagrees with what they transmitted.
    """
    if len(a) != len(b):
        raise ValueError(f"first_difference length mismatch: {len(a)} != {len(b)}")
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    if diff == 0:
        return None
    return 8 * len(a) - diff.bit_length()
