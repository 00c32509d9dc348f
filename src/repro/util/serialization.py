"""Canonical, deterministic serialization for signing and hashing.

Every signed protocol message and every hashed commitment must serialize
identically on every node, so we define one small canonical encoding:

* ``encode_int`` / ``decode_int``: unsigned big-endian with an explicit
  4-byte length prefix (arbitrary-precision safe — group elements are
  thousands of bits).
* ``pack_fields`` / ``unpack_fields``: a length-prefixed concatenation of
  heterogeneous fields (bytes, int, str), each tagged with a one-byte type.
  ``bytes_field_header`` / ``bytes_field_span`` and ``unpack_prefix`` are
  the pieces the wire codec needs to nest and parse large bodies without
  copying them once per level (:mod:`repro.net.wire`).
* ``canonical_json``: sorted-key, no-whitespace JSON for human-inspectable
  structures such as group definitions (whose SHA-256 becomes the group's
  self-certifying identifier, paper §3.2).
"""

from __future__ import annotations

import json

_TAG_BYTES = b"B"
_TAG_INT = b"I"
_TAG_STR = b"S"
# The same tags as indexing a buffer yields them (ints), for the decoder.
_BYTES, _INT, _STR = _TAG_BYTES[0], _TAG_INT[0], _TAG_STR[0]

Field = bytes | int | str


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer as length-prefixed big-endian bytes."""
    if value < 0:
        raise ValueError("canonical encoding covers non-negative integers only")
    body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return len(body).to_bytes(4, "big") + body


def decode_int(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an integer written by :func:`encode_int`.

    Returns:
        (value, next_offset)
    """
    if offset + 4 > len(data):
        raise ValueError("truncated integer length prefix")
    n = int.from_bytes(data[offset : offset + 4], "big")
    start = offset + 4
    if start + n > len(data):
        raise ValueError("truncated integer body")
    return int.from_bytes(data[start : start + n], "big"), start + n


def pack_fields(*fields: Field) -> bytes:
    """Deterministically serialize a sequence of heterogeneous fields.

    Layout per field: 1-byte type tag, 4-byte big-endian length, body.
    The encoding is injective: distinct field sequences never collide,
    which is what signing and commitments require.
    """
    parts: list[bytes] = []
    for field in fields:
        if isinstance(field, bytes):
            tag, body = _TAG_BYTES, field
        elif isinstance(field, bool):
            # bool is an int subclass; reject it to avoid silent surprises.
            raise TypeError("pack_fields does not accept bool; encode explicitly")
        elif isinstance(field, int):
            if field < 0:
                raise ValueError("pack_fields encodes non-negative integers only")
            tag = _TAG_INT
            body = field.to_bytes((field.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(field, str):
            tag, body = _TAG_STR, field.encode("utf-8")
        else:
            raise TypeError(f"unsupported field type {type(field).__name__}")
        parts.append(tag)
        parts.append(len(body).to_bytes(4, "big"))
        parts.append(body)
    return b"".join(parts)


def bytes_field_header(length: int) -> bytes:
    """The five bytes :func:`pack_fields` puts in front of a ``bytes`` field.

    Lets a caller nesting one packed structure inside another (a routed
    frame around an envelope around a 500 KiB body) lay the large body
    down once, in a single join, instead of once per level.
    """
    return _TAG_BYTES + length.to_bytes(4, "big")


def bytes_field_span(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """``(start, end)`` of the ``bytes`` field whose header sits at ``offset``.

    The decoding counterpart of :func:`bytes_field_header`: the field is
    located, not copied, so the caller decides whether to slice it, view
    it or skip it.

    Raises:
        ValueError: no complete ``bytes`` field starts at ``offset``.
    """
    start = offset + 5
    if start > len(data):
        raise ValueError("truncated field header")
    if data[offset] != _BYTES:
        raise ValueError("expected a bytes field")
    end = start + int.from_bytes(data[offset + 1 : start], "big")
    if end > len(data):
        raise ValueError("truncated field body")
    return start, end


def unpack_prefix(data: bytes | memoryview, count: int) -> tuple[list[Field], int]:
    """Decode the first ``count`` fields of ``data`` (all of them if negative).

    Returns ``(fields, next_offset)``.  ``data`` may be a ``memoryview``:
    field headers are read in place and a ``bytes`` field is materialised
    exactly once, straight from the view, so parsing a structure nested in
    a larger buffer never copies it whole first.  Slicing ``bytes`` input
    costs what it always did (``bytes(b)`` of a ``bytes`` object is that
    object).

    Raises:
        ValueError: truncated header or body, unknown tag, invalid UTF-8.
    """
    fields: list[Field] = []
    offset = 0
    n = len(data)
    while offset < n and count:
        start = offset + 5
        if start > n:
            raise ValueError("truncated field header")
        tag = data[offset]
        end = start + int.from_bytes(data[offset + 1 : start], "big")
        if end > n:
            raise ValueError("truncated field body")
        body = data[start:end]
        if tag == _BYTES:
            fields.append(bytes(body))
        elif tag == _INT:
            fields.append(int.from_bytes(body, "big"))
        elif tag == _STR:
            fields.append(str(body, "utf-8"))
        else:
            raise ValueError(f"unknown field tag {bytes((tag,))!r}")
        offset = end
        count -= 1
    return fields, offset


def unpack_fields(data: bytes | memoryview) -> list[Field]:
    """Invert :func:`pack_fields`."""
    return unpack_prefix(data, -1)[0]


def canonical_json(obj: object) -> bytes:
    """Serialize ``obj`` to deterministic JSON bytes (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
