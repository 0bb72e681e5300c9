"""Immutable sorted string tables (SSTables) for the LSM key-value store.

An SSTable is written once by a memtable flush or a compaction and then only
read. On-disk layout::

    [magic: 8 bytes]
    [data block: records, sorted by key]
    [filter block: filter_len bytes, always 0 when written]
    [sparse index block]
    [footer: data_len(8) filter_len(8) index_len(8) crc32(4) magic(8)]

Each record is ``key_len varint || key || flag(1) || value_len varint ||
value`` where ``flag`` 1 marks a tombstone. The sparse index stores every
``index_interval``-th key with its file offset — the structure LevelDB
uses, minus block compression — and is written so the on-disk format
stays one format. The reader does not need it: opening a table reads the
whole file and decodes every record once into a dict (insertion order
is key order), so a point lookup is one hash probe and never decodes a
record again (DESIGN.md §16 has the cost per entry). There is no filter
either, since a lookup never reads the disk a filter would let it skip.
Readers skip the filter and index blocks, so tables from builds that
wrote a filter still open.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.storage import crash
from repro.utils.varint import decode_uvarint, encode_uvarint

_MAGIC = b"REPROSST"
_FOOTER = struct.Struct("<QQQI8s")

FLAG_VALUE = 0
FLAG_TOMBSTONE = 1

#: A lookup result: (found, value). found=True with value=None is a tombstone.
LookupResult = Tuple[bool, Optional[bytes]]


def _encode_record(key: bytes, value: Optional[bytes]) -> bytes:
    if value is None:
        return encode_uvarint(len(key)) + key + bytes([FLAG_TOMBSTONE]) + encode_uvarint(0)
    return (
        encode_uvarint(len(key))
        + key
        + bytes([FLAG_VALUE])
        + encode_uvarint(len(value))
        + value
    )


def _decode_records(data: bytes) -> Dict[bytes, Optional[bytes]]:
    """Every record of a data block, in key order (``None``: tombstone).

    Raises:
        ValueError: on a truncated record, an unknown flag or keys that
            do not strictly ascend — a malformed block, never an
            ``IndexError``.
    """
    records: Dict[bytes, Optional[bytes]] = {}
    end = len(data)
    pos = 0
    last = b""
    try:
        while pos < end:
            key_len = data[pos]
            pos += 1
            if key_len > 0x7F:
                key_len, pos = decode_uvarint(data, pos - 1)
            key = data[pos : pos + key_len]
            pos += key_len
            # A key running past the end makes this read an IndexError.
            flag = data[pos]
            value_len = data[pos + 1]
            pos += 2
            if value_len > 0x7F:
                value_len, pos = decode_uvarint(data, pos - 1)
            if pos + value_len > end:
                raise ValueError("truncated record value")
            if key <= last and records:
                raise ValueError("record keys do not strictly ascend")
            last = key
            if flag == FLAG_VALUE:
                records[key] = data[pos : pos + value_len]
            elif flag == FLAG_TOMBSTONE:
                records[key] = None
            else:
                raise ValueError(f"unknown record flag {flag}")
            pos += value_len
    except IndexError:
        raise ValueError("truncated record") from None
    return records


def write_sstable(
    path: Path,
    items: Iterable[Tuple[bytes, Optional[bytes]]],
    index_interval: int = 16,
) -> "SSTable":
    """Write sorted ``(key, value-or-None)`` pairs to a new SSTable file.

    Args:
        path: destination file (created/truncated).
        items: pairs in strictly ascending key order; ``None`` values are
            tombstones and are preserved (they mask older tables).
        index_interval: one sparse-index entry per this many records.

    Raises:
        ValueError: if keys are not strictly ascending.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    materialized = list(items)
    for (a, _), (b, _) in zip(materialized, materialized[1:]):
        if a >= b:
            raise ValueError("SSTable keys must be strictly ascending")

    data = bytearray()
    index_entries: List[Tuple[bytes, int]] = []
    for i, (key, value) in enumerate(materialized):
        if i % index_interval == 0:
            index_entries.append((key, len(data)))
        data.extend(_encode_record(key, value))

    index_block = bytearray()
    for key, offset in index_entries:
        index_block.extend(encode_uvarint(len(key)))
        index_block.extend(key)
        index_block.extend(encode_uvarint(offset))

    body = bytes(data) + bytes(index_block)
    footer = _FOOTER.pack(
        len(data), 0, len(index_block), zlib.crc32(body), _MAGIC
    )
    # Atomic publish (DESIGN.md §12): a crash mid-write must never leave
    # a torn .sst visible, or recovery would have to guess whether the
    # table's absence of keys is real.
    crash.atomic_write_bytes(
        path, _MAGIC + body + footer, scope="kvstore.sstable"
    )
    return SSTable(path)


class SSTable:
    """Reader for one on-disk SSTable."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        raw = self.path.read_bytes()
        if len(raw) < len(_MAGIC) + _FOOTER.size or raw[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"not an SSTable: {self.path}")
        data_len, filter_len, index_len, crc, magic = _FOOTER.unpack(
            raw[-_FOOTER.size :]
        )
        if magic != _MAGIC:
            raise ValueError(f"bad SSTable footer magic: {self.path}")
        body = raw[len(_MAGIC) : -_FOOTER.size]
        if len(body) != data_len + filter_len + index_len:
            raise ValueError(f"SSTable length mismatch: {self.path}")
        if zlib.crc32(body) != crc:
            raise ValueError(f"SSTable checksum failure: {self.path}")
        try:
            self._records = _decode_records(body[:data_len])
        except ValueError as exc:
            raise ValueError(f"malformed SSTable {self.path}: {exc}") from exc

    def get(self, key: bytes) -> LookupResult:
        """Point lookup; ``(True, None)`` signals a tombstone."""
        records = self._records
        if key in records:
            return True, records[key]
        return False, None

    def __iter__(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Iterate all records (including tombstones) in key order."""
        return iter(self._records.items())

    def __len__(self) -> int:
        return len(self._records)

    def file_bytes(self) -> int:
        """Size of the table file on disk."""
        return self.path.stat().st_size
