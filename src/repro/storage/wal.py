"""Write-ahead log for the LSM key-value store.

Every mutation is appended here before touching the memtable, so a crash
between the append and the next memtable flush loses nothing. Records are
length-prefixed and CRC-protected; recovery replays the log and stops
cleanly at the first torn or corrupt record (the LevelDB convention).

Record layout::

    [crc32: 4 bytes] [payload_len: 4 bytes] [payload]

where payload is ``op(1) || key_len varint || key || value_len varint ||
value`` and ``op`` is PUT (0) or DELETE (1).

Replay is deliberately forgiving about the log's *tail*: a crash mid-append
can leave a truncated record, a zero-filled region (filesystems often
pre-allocate blocks), or CRC-valid-but-short garbage. All of those mean
"the write never committed" and replay stops there without raising —
recovery must never die on the artifact of the crash it is recovering from
(DESIGN.md §12).
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from pathlib import Path
from typing import Iterator, Tuple

from repro.obs import metrics as obs_metrics
from repro.storage import crash
from repro.utils.varint import decode_uvarint, encode_uvarint

_HEADER = struct.Struct("<II")

_REGISTRY = obs_metrics.get_registry()
_WAL_FSYNCS = _REGISTRY.counter(
    "ted_wal_fsyncs_total", "fsync barriers issued by the write-ahead log"
)
_WAL_FSYNC_SECONDS = _REGISTRY.histogram(
    "ted_wal_fsync_seconds", "Latency of write-ahead-log fsync barriers"
)

OP_PUT = 0
OP_DELETE = 1


class WriteAheadLog:
    """Append-only, CRC-checked mutation log.

    Args:
        path: log file location (parent directories are created).
        scope: crash-point namespace for this log instance — the torn
            append point is ``<scope>.append`` (DESIGN.md §12).
    """

    def __init__(self, path: Path, scope: str = "wal") -> None:
        self.path = Path(path)
        self.scope = scope
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")

    def append(self, op: int, key: bytes, value: bytes = b"") -> None:
        """Append one mutation and flush it to the OS."""
        if op not in (OP_PUT, OP_DELETE):
            raise ValueError(f"unknown WAL op: {op}")
        payload = (
            bytes([op])
            + encode_uvarint(len(key))
            + key
            + encode_uvarint(len(value))
            + value
        )
        record = _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        crash.crashy_write(self._file, record, f"{self.scope}.append")
        self._file.flush()

    def sync(self) -> None:
        """fsync the log (durability barrier)."""
        self._file.flush()
        start = time.perf_counter()
        os.fsync(self._file.fileno())
        _WAL_FSYNCS.inc()
        _WAL_FSYNC_SECONDS.observe(time.perf_counter() - start)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def truncate(self) -> None:
        """Discard all records (called after a successful memtable flush).

        The truncation is fsynced (file and directory) before returning:
        without the barrier, a crash after the memtable flush could leave
        the old log contents on disk, and replay would resurrect — and
        double-apply — mutations that the flush already persisted.
        """
        crash.crash_point(f"{self.scope}.before_truncate")
        self._file.close()
        start = time.perf_counter()
        self._file = open(self.path, "wb")
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = open(self.path, "ab")
        # Durability of the (possibly re-created) directory entry.
        crash.fsync_dir(self.path.parent)
        _WAL_FSYNCS.inc(2)
        _WAL_FSYNC_SECONDS.observe(time.perf_counter() - start)

    @staticmethod
    def replay(path: Path) -> Iterator[Tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for every intact record in the log.

        Stops silently at the first truncated, corrupt, or malformed
        record, which is the correct crash-recovery behaviour: a torn
        tail means the write never completed, and everything before it
        is intact. This covers truncation at *every* byte offset, a
        zero-filled tail (a length-0 record CRC-checks against the empty
        payload, so it needs an explicit guard), and CRC-valid payloads
        that fail structural decoding.
        """
        path = Path(path)
        if not path.exists():
            return
        data = path.read_bytes()
        offset = 0
        while offset + _HEADER.size <= len(data):
            crc, length = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if length == 0 or end > len(data):
                return  # torn or zero-filled tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                return  # corrupt tail
            try:
                op = payload[0]
                if op not in (OP_PUT, OP_DELETE):
                    return
                key_len, pos = decode_uvarint(payload, 1)
                key = payload[pos : pos + key_len]
                if len(key) != key_len:
                    return
                pos += key_len
                value_len, pos = decode_uvarint(payload, pos)
                value = payload[pos : pos + value_len]
                if len(value) != value_len:
                    return
            except (ValueError, IndexError):
                return  # structurally malformed despite matching CRC
            yield op, key, value
            offset = end
