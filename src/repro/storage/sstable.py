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
``index_interval``-th key with its file offset, so a point lookup
binary-searches it and scans at most one interval of the data block — the
same structure LevelDB uses, minus block compression. There is no filter:
the whole table is read into memory when opened, so a lookup never reads
the disk a filter would let it skip. Readers skip the filter block, so
tables from builds that wrote one still open.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple

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


def _decode_record(data: bytes, offset: int) -> Tuple[bytes, Optional[bytes], int]:
    key_len, pos = decode_uvarint(data, offset)
    key = data[pos : pos + key_len]
    pos += key_len
    flag = data[pos]
    pos += 1
    value_len, pos = decode_uvarint(data, pos)
    value = data[pos : pos + value_len]
    pos += value_len
    if flag == FLAG_TOMBSTONE:
        return key, None, pos
    return key, value, pos


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
        self._data = body[:data_len]
        self._index_keys: List[bytes] = []
        self._index_offsets: List[int] = []
        pos = 0
        index_block = body[data_len + filter_len :]
        while pos < len(index_block):
            key_len, pos = decode_uvarint(index_block, pos)
            self._index_keys.append(index_block[pos : pos + key_len])
            pos += key_len
            offset, pos = decode_uvarint(index_block, pos)
            self._index_offsets.append(offset)

    def get(self, key: bytes) -> LookupResult:
        """Point lookup; ``(True, None)`` signals a tombstone."""
        slot = bisect_right(self._index_keys, key) - 1
        if slot < 0:
            return False, None
        offset = self._index_offsets[slot]
        end = (
            self._index_offsets[slot + 1]
            if slot + 1 < len(self._index_offsets)
            else len(self._data)
        )
        while offset < end:
            record_key, value, offset = _decode_record(self._data, offset)
            if record_key == key:
                return True, value
            if record_key > key:
                return False, None
        return False, None

    def __iter__(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Iterate all records (including tombstones) in key order."""
        offset = 0
        while offset < len(self._data):
            key, value, offset = _decode_record(self._data, offset)
            yield key, value

    def __len__(self) -> int:
        count = 0
        for _ in self:
            count += 1
        return count

    def file_bytes(self) -> int:
        """Size of the table file on disk."""
        return self.path.stat().st_size
