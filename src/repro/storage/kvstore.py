"""LSM-tree key-value store — the LevelDB stand-in for the fingerprint index.

TEDStore's provider keeps its fingerprint index in LevelDB (paper §4); the
B.5 experiment even attributes upload slowdown to LevelDB compaction cost as
the index grows. This store reproduces that architecture and therefore that
behaviour:

* writes go to a WAL, then a memtable;
* a full memtable flushes to an immutable L0 SSTable;
* reads check memtable → SSTables newest-first, each an exact in-memory
  lookup;
* when L0 accumulates ``compaction_trigger`` tables, they are merge-compacted
  into one, dropping shadowed versions and (at the bottom level) tombstones.

The store recovers from a crash by replaying the WAL over the tables found
on disk.
"""

from __future__ import annotations

import heapq
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.storage import crash
from repro.storage.memtable import MemTable
from repro.storage.sstable import SSTable, write_sstable
from repro.storage.wal import OP_DELETE, OP_PUT, WriteAheadLog

_REGISTRY = obs_metrics.get_registry()
_RECOVERY_TABLES_QUARANTINED = _REGISTRY.counter(
    "ted_recovery_sstables_quarantined_total",
    "Corrupt SSTables set aside by key-value-store startup recovery",
)

_TABLE_NAME = re.compile(r"table-(0|[1-9][0-9]*)\.sst")


def _table_id(path: Path) -> Optional[int]:
    """The id in a ``table-<id>.sst`` name, or None if it does not parse."""
    match = _TABLE_NAME.fullmatch(path.name)
    return int(match.group(1)) if match else None


class KVStore:
    """Persistent byte-keyed, byte-valued store with LSM internals.

    Args:
        directory: storage directory (created if missing).
        memtable_bytes: flush threshold for the write buffer.
        compaction_trigger: number of L0 tables that triggers a compaction.
        sync_writes: fsync the WAL on every mutation (slow, durable).

    Example:
        >>> import tempfile
        >>> store = KVStore(tempfile.mkdtemp())
        >>> store.put(b"fp", b"location")
        >>> store.get(b"fp")
        b'location'
    """

    def __init__(
        self,
        directory,
        memtable_bytes: int = 1 << 20,
        compaction_trigger: int = 4,
        sync_writes: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memtable_bytes = memtable_bytes
        self.compaction_trigger = compaction_trigger
        self.sync_writes = sync_writes
        self.stats: Dict[str, int] = {
            "flushes": 0,
            "compactions": 0,
            "table_misses": 0,
            "table_reads": 0,
        }
        self._memtable = MemTable()
        self._wal = WriteAheadLog(
            self.directory / "wal.log", scope="kvstore.wal"
        )
        self._tables: List[SSTable] = []  # newest first
        self._next_table_id = 0
        self._recover()

    # -- lifecycle --------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild from disk, tolerating the artifacts a crash leaves.

        Stray ``.tmp`` files (interrupted atomic table writes) are
        deleted; a corrupt SSTable, or a ``table-*.sst`` whose id does
        not parse, is quarantined rather than fatal — with atomic
        publication it can only mean external damage, and recovery must
        not die on it. WAL replay stops at the first torn record by
        construction. Table-id allocation stays monotonic past
        quarantined ids, including those quarantined by an earlier
        start, so a later quarantine never overwrites earlier evidence.
        """
        crash.remove_stray_tmp_files(self.directory)
        live: Dict[int, Path] = {}
        for path in self.directory.glob("table-*.sst"):
            table_id = _table_id(path)
            if table_id is None:
                self._quarantine(path)
            else:
                live[table_id] = path
        quarantined = (self.directory / "quarantine").glob("table-*.sst")
        burned = [i for i in map(_table_id, quarantined) if i is not None]
        self._next_table_id = max([*live, *burned], default=-1) + 1
        self._tables = []
        for table_id in sorted(live, reverse=True):
            try:
                self._tables.append(SSTable(live[table_id]))
            except ValueError:
                self._quarantine(live[table_id])
        for op, key, value in WriteAheadLog.replay(self._wal.path):
            if op == OP_PUT:
                self._memtable.put(key, value)
            else:
                self._memtable.delete(key)

    def _quarantine(self, path: Path) -> None:
        quarantine = self.directory / "quarantine"
        quarantine.mkdir(exist_ok=True)
        path.replace(quarantine / path.name)
        crash.fsync_dir(quarantine)
        crash.fsync_dir(self.directory)
        _RECOVERY_TABLES_QUARANTINED.inc()

    def close(self) -> None:
        """Flush the memtable and release the WAL file handle."""
        self.flush()
        self._wal.close()

    # -- mutations ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite a key."""
        self._wal.append(OP_PUT, key, value)
        if self.sync_writes:
            self._wal.sync()
        self._memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        """Delete a key (tombstoned until compaction)."""
        self._wal.append(OP_DELETE, key)
        if self.sync_writes:
            self._wal.sync()
        self._memtable.delete(key)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes() >= self.memtable_bytes:
            self.flush()

    def flush(self) -> None:
        """Write the memtable out as a new L0 SSTable.

        Ordering is the recovery invariant: the table is durably
        published *before* the WAL truncates. A crash between the two
        replays WAL records whose keys the new table already holds —
        put/delete replay is idempotent, so that is safe; the reverse
        order would lose them.
        """
        if self._memtable.is_empty():
            return
        crash.crash_point("kvstore.flush.before_table")
        path = self.directory / f"table-{self._next_table_id}.sst"
        self._next_table_id += 1
        table = write_sstable(path, self._memtable.sorted_items())
        self._tables.insert(0, table)
        self._memtable.clear()
        crash.crash_point("kvstore.flush.before_truncate")
        self._wal.truncate()
        self.stats["flushes"] += 1
        if len(self._tables) >= self.compaction_trigger:
            self.compact()

    # -- reads --------------------------------------------------------------

    def get(self, key: bytes, default: Optional[bytes] = None) -> Optional[bytes]:
        """Point lookup across memtable and tables (newest wins)."""
        found, value = self._memtable.get(key)
        if found:
            return value if value is not None else default
        for table in self._tables:
            self.stats["table_reads"] += 1
            found, value = table.get(key)
            if found:
                return value if value is not None else default
            self.stats["table_misses"] += 1
        return default

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Sorted scan over the live (non-deleted) contents."""
        sources: List[Iterator[Tuple[bytes, Optional[bytes]]]] = [
            iter(self._memtable.sorted_items())
        ]
        sources.extend(iter(t) for t in self._tables)
        # Merge by (key, source priority); priority 0 is newest. The helper
        # binds (priority, source) eagerly — a bare nested genexp would
        # late-bind the loop variables and mix up sources.
        def tagged(priority, source):
            for key, value in source:
                yield key, priority, value

        merged = heapq.merge(
            *(tagged(i, source) for i, source in enumerate(sources))
        )
        last_key: Optional[bytes] = None
        for key, _priority, value in merged:
            if key == last_key:
                continue
            last_key = key
            if value is not None:
                yield key, value

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- compaction ----------------------------------------------------------

    def compact(self) -> None:
        """Merge all tables into one, dropping shadowed versions/tombstones."""
        if len(self._tables) <= 1:
            return
        merged: Dict[bytes, Optional[bytes]] = {}
        # Oldest first so newer tables overwrite.
        for table in reversed(self._tables):
            for key, value in table:
                merged[key] = value
        live = sorted(
            (k, v) for k, v in merged.items() if v is not None
        )
        old_paths = [t.path for t in self._tables]
        path = self.directory / f"table-{self._next_table_id}.sst"
        self._next_table_id += 1
        new_table = write_sstable(path, live)
        self._tables = [new_table]
        for old in old_paths:
            old.unlink(missing_ok=True)
        self.stats["compactions"] += 1

    # -- introspection --------------------------------------------------------

    def table_count(self) -> int:
        """Number of on-disk SSTables."""
        return len(self._tables)

    def disk_bytes(self) -> int:
        """Total bytes across SSTable files."""
        return sum(t.file_bytes() for t in self._tables)
