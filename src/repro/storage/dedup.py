"""Provider-side deduplication engine.

Combines the fingerprint index (LSM KV store mapping ciphertext fingerprint
→ physical :class:`ChunkLocation`) with the container store. Deduplication
happens here — at the provider, over *ciphertext* chunks — which is the
architectural choice the paper makes to close client-side dedup side
channels (§2.2).

Tracks the logical/physical statistics the evaluation reports (deduplication
ratio, storage saving, actual storage blowup inputs).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.storage.container import ContainerStore, ChunkLocation
from repro.storage.kvstore import KVStore
from repro.storage.restore import (
    FragmentationAnalyzer,
    _RESTORE_FRAGMENTATION,
)

_REGISTRY = obs_metrics.get_registry()
_RECOVERY_INDEX_DROPPED = _REGISTRY.counter(
    "ted_recovery_index_entries_dropped_total",
    "Fingerprint-index entries dropped because they referenced "
    "missing or out-of-bounds chunks",
)

#: Per-fingerprint lock stripes of each :class:`DedupEngine`.
STRIPES = 64


class RingEpochRegressionError(ValueError):
    """A peer reported a ring epoch *older* than one already observed.

    Epochs only move forward (every membership change increments them),
    so a lower epoch means the answering shard is serving a stale ring
    config — e.g. restarted from an old snapshot or partitioned away
    during a reshard. The client must not trust it, and must *not*
    throw away its own cache: the cache reflects the newer placement,
    which is still the authoritative one.
    """

    def __init__(self, reported: int, current: int) -> None:
        super().__init__(
            f"ring epoch moved backwards: {reported} < {current}"
        )
        self.reported = reported
        self.current = current


class FingerprintCache:
    """Client-side duplicate short-circuit: an LRU over acknowledged uploads.

    Maps a *(plaintext fingerprint, key seed)* pair to the ciphertext
    fingerprint the pair produced when it was last uploaded and
    acknowledged by the provider. The mapping is exact — identical
    (fingerprint, seed) means identical derived key, hence identical
    deterministic ciphertext — so a hit proves the ciphertext chunk is
    already stored at the provider and the client can skip both the
    encryption and the PUT round trip (PM-Dedup-style local duplicate
    detection, PAPERS.md) without changing a single stored byte.

    Entries MUST only be inserted after the provider acknowledged the
    chunk's PUT (the cache-coherence rule of DESIGN.md §10): the cache
    asserts presence-at-provider, not presence-in-flight. The provider
    never deletes chunks during a client session (GC is offline), so a
    hit can never go stale mid-upload.

    Thread-safe: lookups and inserts may come from any pipeline stage.
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._lru: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.epoch = 0
        self.epoch_invalidations = 0

    @staticmethod
    def key(fingerprint: bytes, seed: bytes) -> bytes:
        """The cache key for one (plaintext fingerprint, seed) pair."""
        return fingerprint + b"\x00" + seed

    def lookup(self, fingerprint: bytes, seed: bytes) -> Optional[bytes]:
        """Ciphertext fingerprint if this exact pair was uploaded before."""
        key = self.key(fingerprint, seed)
        with self._lock:
            cipher_fp = self._lru.get(key)
            if cipher_fp is None:
                self.misses += 1
            else:
                self._lru.move_to_end(key)
                self.hits += 1
        return cipher_fp

    def insert(
        self, fingerprint: bytes, seed: bytes, cipher_fp: bytes
    ) -> None:
        """Record a provider-acknowledged upload of this pair."""
        key = self.key(fingerprint, seed)
        with self._lock:
            self._lru[key] = cipher_fp
            self._lru.move_to_end(key)
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
                self.evictions += 1

    def advance_epoch(self, epoch: int) -> int:
        """Invalidate everything when the provider's ring epoch moves.

        A cache hit asserts "this ciphertext fingerprint is stored at
        the provider *under the current placement*". A reshard changes
        placement: a fingerprint's owning shard may move, and the copy
        the cache remembers may be mid-migration or GC'd from its old
        shard. Entries cached under an older epoch therefore cannot be
        trusted to short-circuit an upload — dropping them costs a
        re-encrypt + PUT (which the provider dedups server-side), while
        keeping them could skip a PUT the new owner never saw.

        Returns the number of entries invalidated; same-epoch calls are
        no-ops so the pipeline can consult this on every upload.

        Raises:
            RingEpochRegressionError: ``epoch`` is lower than the epoch
                already observed. The cache is left untouched — the
                stale peer is wrong, not the cache (DESIGN.md §17).
        """
        with self._lock:
            if epoch == self.epoch:
                return 0
            if epoch < self.epoch:
                raise RingEpochRegressionError(epoch, self.epoch)
            invalidated = len(self._lru)
            self.epoch = epoch
            self.epoch_invalidations += invalidated
            self._lru.clear()
        return invalidated

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._lru),
                "epoch": self.epoch,
                "epoch_invalidations": self.epoch_invalidations,
            }


@dataclass
class DedupStats:
    """Running logical-vs-physical accounting."""

    logical_chunks: int = 0
    logical_bytes: int = 0
    unique_chunks: int = 0
    unique_bytes: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Logical/physical byte ratio (1.0 when nothing deduplicates)."""
        if self.unique_bytes == 0:
            return 1.0
        return self.logical_bytes / self.unique_bytes

    @property
    def storage_saving(self) -> float:
        """Fraction of logical bytes removed by deduplication."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.unique_bytes / self.logical_bytes


class DedupEngine:
    """Content-addressed chunk store with inline deduplication.

    Thread-safe: the multi-tenant provider (DESIGN.md §13) calls one
    engine from many connection threads, so the engine carries locks
    with enough granularity that concurrent callers make real progress
    instead of queueing on one global lock:

    * **striped per-fingerprint locks** make the check-then-append of one
      fingerprint atomic (two callers racing to store the same chunk
      must not both append it) without serializing distinct fingerprints;
    * :attr:`index_lock` covers every KV-store read/write — a lookup
      racing a memtable flush would observe a half-swapped table list;
    * :attr:`container_lock` covers appends and reads — the open
      container is a single mutable buffer.

    The stripes are **per engine**: they provide no atomicity across two
    engines, so they only suffice when a fingerprint can never be offered
    to two engines concurrently. Under sharding (DESIGN.md §15) that is
    the ring's routing invariant — one fingerprint, one owning shard per
    epoch — and migrations only change placement through ``repro
    reshard``, which runs against a quiesced store and bumps the ring
    epoch so client caches drop pre-migration placement knowledge
    (:meth:`FingerprintCache.advance_epoch`).

    The duplicate fast path takes only a stripe plus the short index
    lock, so one caller's duplicate detection proceeds while another
    streams container appends under the container lock. Lock order is
    strictly ``stripe → (index | container | stats)``; batch reads,
    :meth:`flush` and :meth:`close` hold index then container. Public
    methods lock and private helpers do not, so no lock is re-entered.
    Tools that read the components directly (fsck) take
    :attr:`index_lock` and :attr:`container_lock` themselves.

    Args:
        directory: root directory (index and containers live underneath).
        container_bytes: container capacity (see :class:`ContainerStore`).
        index: optionally inject a pre-configured KV store (ablations swap
            in a plain dict-backed index here).
    """

    def __init__(
        self,
        directory,
        container_bytes: int = 8 << 20,
        index: Optional[KVStore] = None,
        kvstore_options: Optional[Dict] = None,
        startup_reconcile: bool = True,
    ) -> None:
        directory = Path(directory)
        self.containers = ContainerStore(
            directory / "containers", container_bytes=container_bytes
        )
        self.index = index or KVStore(
            directory / "index", **(kvstore_options or {})
        )
        # Index <-> container reconciliation (DESIGN.md §12): after a
        # crash the replayed index may reference chunks that never became
        # durable (the open container died with the process) or that
        # recovery quarantined. Those entries are dropped — and counted —
        # so every surviving index entry resolves to real bytes.
        self.recovered_index_drops = (
            self._reconcile_index() if startup_reconcile else 0
        )
        self.stats = DedupStats()
        self.index_lock = threading.Lock()
        self.container_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(STRIPES))

    def _reconcile_index(self) -> int:
        """Drop index entries that no longer resolve to durable chunks."""
        sealed_data_len: Dict[int, int] = {}
        for container_id in self.containers.container_ids():
            sealed_data_len[container_id] = (
                self.containers.container_data_bytes(container_id)
            )
        dropped = 0
        for fingerprint, raw in list(self.index.items()):
            try:
                location = ChunkLocation.from_bytes(raw)
            except ValueError:
                location = None
            if (
                location is None
                or location.container_id not in sealed_data_len
                or location.offset + location.length
                > sealed_data_len[location.container_id]
            ):
                self.index.delete(fingerprint)
                dropped += 1
        if dropped:
            _RECOVERY_INDEX_DROPPED.inc(dropped)
        return dropped

    def store(self, fingerprint: bytes, chunk: bytes) -> bool:
        """Store one (ciphertext) chunk; returns True if it was new.

        Duplicate fingerprints cost one index lookup and no container I/O —
        the deduplication fast path.
        """
        stripe = self._stripes[zlib.crc32(fingerprint) % STRIPES]
        with stripe:
            with self.index_lock:
                unique = self.index.get(fingerprint) is None
            if unique:
                with self.container_lock:
                    location = self.containers.append(chunk, fingerprint)
                with self.index_lock:
                    self.index.put(fingerprint, location.to_bytes())
            with self._stats_lock:
                self.stats.logical_chunks += 1
                self.stats.logical_bytes += len(chunk)
                if unique:
                    self.stats.unique_chunks += 1
                    self.stats.unique_bytes += len(chunk)
        return unique

    def contains(self, fingerprint: bytes) -> bool:
        """Whether a chunk with this fingerprint is stored."""
        with self.index_lock:
            return self.index.get(fingerprint) is not None

    def load(self, fingerprint: bytes) -> bytes:
        """Fetch a chunk by fingerprint.

        Raises:
            KeyError: unknown fingerprint.
        """
        location = self.locate(fingerprint)
        with self.container_lock:
            return self.containers.read(location)

    def locate(self, fingerprint: bytes) -> ChunkLocation:
        """Resolve a fingerprint to its physical location.

        Raises:
            KeyError: unknown fingerprint.
        """
        with self.index_lock:
            return self._locate(fingerprint)

    def _locate(self, fingerprint: bytes) -> ChunkLocation:
        raw = self.index.get(fingerprint)
        if raw is None:
            raise KeyError(f"unknown fingerprint: {fingerprint.hex()}")
        return ChunkLocation.from_bytes(raw)

    def load_many(self, fingerprints):
        """Fetch a batch of chunks in request order.

        Each chunk is one :meth:`ContainerStore.read`. Holds the index
        and container locks for the whole batch: reads share the
        container store's LRU of open files, and reads of the open
        container race appends. Restores therefore serialize against
        stores, but not against the index-only duplicate path.

        Raises:
            KeyError: any unknown fingerprint.
        """
        with self.index_lock, self.container_lock:
            locations = [self._locate(fp) for fp in fingerprints]
            if locations:
                report = FragmentationAnalyzer.analyze(locations)
                _RESTORE_FRAGMENTATION.set(report.fragmentation_factor)
            return [self.containers.read(loc) for loc in locations]

    def flush(self) -> None:
        """Seal the open container and flush the index."""
        with self.index_lock, self.container_lock:
            self._flush()

    def _flush(self) -> None:
        self.containers.seal()
        self.index.flush()

    def close(self) -> None:
        """Flush and release resources."""
        with self.index_lock, self.container_lock:
            self._flush()
            self.index.close()
            self.containers.close()

    def physical_bytes(self) -> int:
        """Bytes in the container store (the paper's physical storage size)."""
        with self.container_lock:
            return self.containers.physical_bytes()

    def container_count(self) -> int:
        """Sealed containers on disk."""
        with self.container_lock:
            return self.containers.container_count()


class InMemoryDedupEngine:
    """The dedup engine without a disk: one dict under one lock.

    Experiments B.1–B.3 remove disk I/O to measure compute limits; this
    engine keeps the provider's chunk path identical in that mode.
    ``chunks`` maps fingerprint to stored chunk.
    """

    def __init__(self) -> None:
        self.chunks: Dict[bytes, bytes] = {}
        self.stats = DedupStats()
        self._lock = threading.Lock()

    def store(self, fingerprint: bytes, chunk: bytes) -> bool:
        """Store one chunk; returns True if it was new."""
        with self._lock:
            unique = fingerprint not in self.chunks
            if unique:
                self.chunks[fingerprint] = chunk
                self.stats.unique_chunks += 1
                self.stats.unique_bytes += len(chunk)
            self.stats.logical_chunks += 1
            self.stats.logical_bytes += len(chunk)
        return unique

    def load_many(self, fingerprints):
        """Fetch a batch of chunks in request order.

        Raises:
            KeyError: any unknown fingerprint.
        """
        with self._lock:
            return [self.chunks[fp] for fp in fingerprints]

    def flush(self) -> None:
        """Nothing to make durable."""

    def close(self) -> None:
        """Nothing to release."""

    def physical_bytes(self) -> int:
        with self._lock:
            return self.stats.unique_bytes

    def container_count(self) -> int:
        """No containers: chunks live in the dict."""
        return 0
