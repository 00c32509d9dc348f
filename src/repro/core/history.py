"""The coordinator's filed history: an append-only log of entries.

An *entry* is one filed round: its :class:`~repro.core.rounds.RoundRecord`
and the ``(round, slot, message)`` rows its output delivered.  The log
keeps an entry as decoded objects while it only grows in memory, and as
bytes once a checkpoint holds it:

* a save encodes each entry once, the first time it is saved, appends it
  to the history field it keeps (``pack_fields`` of the entries, in
  order) and steps the *head*, a running SHA-256 over that field; every
  later save copies the field as it stands;
* a restore adopts the field verbatim, hashes it once against the head
  it was saved with and decodes only the last record, the one the round
  sequence reads (``Coordinator.speculation_checked``);
* :attr:`History.records` and :attr:`History.delivered` are read-only
  sequence views, one column of the entries each, and a view decodes an
  entry's part when it is read.

The entry codec is the checkpoint's (:mod:`repro.persist.codec`); this
module only frames entries, so a session that never saves runs none of it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence

from repro.core.rounds import RoundRecord
from repro.errors import CheckpointError
from repro.util.serialization import bytes_field_header, bytes_field_span

#: One delivered message: ``(round, slot, message)``.
Row = tuple[int, int, bytes]


class _Saved:
    """The history field: the saved entries, framed and in order, where
    each one's bytes sit in it, and its running SHA-256."""

    __slots__ = ("field", "spans", "head")

    def __init__(self) -> None:
        self.field = bytearray()
        self.spans: list[tuple[int, int]] = []
        self.head = hashlib.sha256()

    def entry(self, index: int) -> bytes:
        start, end = self.spans[index]
        return bytes(self.field[start:end])


class _Column(Sequence):
    """One part of every entry, read-only: the decoded item, or None where
    only the saved bytes hold it until it is read.  Equal to any sequence
    of the same items, a list or another view."""

    __slots__ = ("_items", "_saved", "_read")
    __hash__ = None

    def __init__(self, saved: _Saved) -> None:
        self._items: list = []
        self._saved = saved
        #: ``(entry bytes) -> item``; set when a restore leaves items None.
        self._read = None

    def _item(self, index: int):
        item = self._items[index]
        if item is None:
            item = self._items[index] = self._read(self._saved.entry(index))
        return item

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class Records(_Column):
    """The filed records, in filing order."""

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(*index.indices(len(self)))]
        return self._item(index)

    def __iter__(self):
        for i in range(len(self._items)):
            yield self._item(i)


class Delivered(_Column):
    """Every delivered ``(round, slot, message)``, in delivery order; an
    item is the list of rows one entry delivered."""

    __slots__ = ("_ends",)

    def __init__(self, saved: _Saved) -> None:
        super().__init__(saved)
        #: Rows through each entry, for a prefix of the entries: extended
        #: when read, so a restored entry is not counted until then.
        self._ends: list[int] = []

    def _row_ends(self) -> list[int]:
        ends = self._ends
        for i in range(len(ends), len(self._items)):
            ends.append((ends[-1] if ends else 0) + len(self._item(i)))
        return ends

    def _between(self, start: int, stop: int) -> list[Row]:
        ends = self._row_ends()
        found: list[Row] = []
        e = bisect_right(ends, start)
        while e < len(ends) and start < stop:
            first = ends[e - 1] if e else 0
            found += self._item(e)[start - first : stop - first]
            start, e = ends[e], e + 1
        return found

    def __len__(self) -> int:
        ends = self._row_ends()
        return ends[-1] if ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._between(start, stop)
            return [self[i] for i in range(start, stop, step)]
        total = len(self)
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError("delivered index out of range")
        return self._between(index, index + 1)[0]

    def __iter__(self):
        for i in range(len(self._items)):
            yield from self._item(i)


class History:
    """The filed rounds as an append-only log of entries."""

    def __init__(self) -> None:
        self._saved = _Saved()
        self.records = Records(self._saved)
        self.delivered = Delivered(self._saved)

    def append(self, record: RoundRecord, rows: list[Row]) -> None:
        """File one round and the rows its output delivered."""
        self.records._items.append(record)
        self.delivered._items.append(rows)

    def encoded(self, encode_entry) -> tuple[bytes, bytes]:
        """The history field and its head.  Only the entries filed since
        the previous call are encoded, by ``encode_entry(record, rows)``."""
        saved, records, rows = self._saved, self.records._items, self.delivered._items
        for i in range(len(saved.spans), len(records)):
            data = encode_entry(records[i], rows[i])
            frame = bytes_field_header(len(data)) + data
            saved.field += frame
            saved.spans.append((len(saved.field) - len(data), len(saved.field)))
            saved.head.update(frame)
        return bytes(saved.field), saved.head.digest()

    @classmethod
    def restored(cls, field: bytes, head: bytes, read_record, read_rows) -> "History":
        """The log a checkpoint's history ``field`` holds, checked against
        its ``head``; the last record is decoded, nothing else."""
        history = cls()
        saved = history._saved
        saved.head = hashlib.sha256(field)
        if saved.head.digest() != head:
            raise CheckpointError("the history does not match its head")
        saved.field = bytearray(field)
        offset = 0
        try:
            while offset < len(field):
                saved.spans.append(bytes_field_span(field, offset))
                offset = saved.spans[-1][1]
        except ValueError as exc:
            raise CheckpointError(f"history entry {len(saved.spans)}: {exc}") from exc
        columns = ((history.records, read_record), (history.delivered, read_rows))
        for column, read in columns:
            column._items = [None] * len(saved.spans)
            column._read = read
        if saved.spans:
            history.records[-1]
        return history
