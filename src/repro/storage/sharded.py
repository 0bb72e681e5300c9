"""Ring-routed sharded deduplication engine.

The provider side of ROADMAP item 2: one fingerprint index and one
container pool cannot serve millions of users, so the store is split
into N independent :class:`~repro.storage.dedup.DedupEngine` shards
under ``shards/<k>/``, each with its own LSM index, container pool,
WAL-backed id allocation, and crash recovery — the per-shard on-disk
format is byte-for-byte the single-engine format, so every existing
tool (fsck, scrub, crash recovery) works per shard unchanged.

Routing is the consistent-hash ring's job (``tedstore/ring.py``): a
cipher fingerprint always hashes to the same shard, so dedup decisions
are exact — the shard that owns a fingerprint sees *every* store of
it, and no fingerprint can ever be stored by two shards under one ring
epoch (DESIGN.md §15's routing invariant). Cross-epoch aliasing —
a reshard moving a fingerprint's ownership while a client cache still
remembers the old epoch — is handled by the cache's epoch invalidation
(:meth:`~repro.storage.dedup.FingerprintCache.advance_epoch`), not
here.

Every leaf is a thread-safe :class:`~repro.storage.dedup.DedupEngine`
with its own lock stripes. Stripes give no atomicity across shards, and
none is needed: the ring routes a fingerprint to exactly one shard, so
the router itself holds no lock.

The ring object is injected rather than imported so this module stays
free of ``repro.tedstore`` dependencies; anything with
``shard_for_key``/``shards``/``epoch`` duck-types.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.storage.dedup import ChunkLocation, DedupEngine, DedupStats

SHARDS_DIRNAME = "shards"

_REGISTRY = obs_metrics.get_registry()
_ROUTED_BATCHES = _REGISTRY.counter(
    "ted_shard_routed_batches_total",
    "Sub-batches routed to a shard by the consistent-hash ring",
    labelnames=("side", "shard"),
)
_ROUTED_KEYS = _REGISTRY.counter(
    "ted_shard_routed_keys_total",
    "Keys (fingerprints / hash vectors) routed to a shard",
    labelnames=("side", "shard"),
)
_IMBALANCE = _REGISTRY.gauge(
    "ted_shard_imbalance",
    "Max/mean ratio of per-shard routed-key counts (1.0 = perfectly even)",
    labelnames=("side",),
)


class ShardFanout:
    """The ring fan-out, written once for every router in the deployment.

    One instance per router (provider engine, fleet client, KM front),
    labelled by ``side``; it also carries the routed-batch accounting —
    cumulative per-shard key counts and ``ted_shard_imbalance``.
    """

    def __init__(self, side: str, shard_ids: Sequence[int]) -> None:
        self._side = side
        self._counts: Dict[int, int] = {int(s): 0 for s in shard_ids}

    def run(
        self,
        owners: Sequence[int],
        items: Sequence,
        call: Callable[[int, list], object],
        admit: Optional[Callable[[int], None]] = None,
    ) -> List[Tuple[List[int], object]]:
        """Route one batch: shard ``owners[i]`` owns ``items[i]``.

        Groups the batch per shard, then runs ``admit(shard)`` for
        **every** target shard before anything is sent — a batch that
        cannot fully land (``admit`` raises) reaches no shard at all,
        so fail-fast never manufactures partial cross-shard state.
        Then calls ``call(shard, sub_items)`` in shard-id order;
        ``sub_items`` keeps arrival order, which is all a shard's
        determinism (container look-ahead, Count-Min update order)
        needs. Returns ``(positions, result)`` per visited shard for
        the caller to sum or :meth:`scatter`.
        """
        groups: Dict[int, List[int]] = {}
        for position, owner in enumerate(owners):
            groups.setdefault(owner, []).append(position)
        visit = sorted(groups)
        if admit is not None:
            for shard in visit:
                admit(shard)
        routed = []
        for shard in visit:
            positions = groups[shard]
            self.record(shard, len(positions))
            result = call(shard, [items[p] for p in positions])
            routed.append((positions, result))
        return routed

    @staticmethod
    def scatter(
        routed: Iterable[Tuple[List[int], Sequence]], size: int
    ) -> list:
        """Per-shard result sequences back into request order."""
        results: list = [None] * size
        for positions, values in routed:
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def record(self, shard: int, keys: int) -> None:
        self._counts[shard] = self._counts.get(shard, 0) + keys
        _ROUTED_BATCHES.labels(side=self._side, shard=str(shard)).inc()
        _ROUTED_KEYS.labels(side=self._side, shard=str(shard)).inc(keys)
        counts = self._counts.values()
        total = sum(counts)
        if total:
            mean = total / len(self._counts)
            _IMBALANCE.labels(side=self._side).set(max(counts) / mean)

    @property
    def counts(self) -> Dict[int, int]:
        return dict(self._counts)


class ShardedDedupEngine:
    """N ring-routed dedup engines presenting the single-engine API.

    Args:
        directory: storage root; shard ``k`` lives at
            ``<directory>/shards/<k>``.
        ring: placement — anything with ``shard_for_key(bytes) -> int``,
            ``shards`` (ids), and ``epoch``.
        container_bytes: per-shard container size budget.

    Example:
        >>> from repro.tedstore.ring import HashRing
        >>> engine = ShardedDedupEngine(tmp, HashRing.build(3))
        >>> engine.store(b"f" * 32, b"data")
        True
    """

    def __init__(
        self,
        directory,
        ring,
        container_bytes: int = 8 << 20,
    ) -> None:
        self.directory = Path(directory)
        self.ring = ring
        self.container_bytes = container_bytes
        self._leaves: Dict[int, DedupEngine] = {
            shard: DedupEngine(
                self.directory / SHARDS_DIRNAME / str(shard),
                container_bytes=container_bytes,
            )
            for shard in ring.shards
        }
        self._fanout = ShardFanout("provider", ring.shards)

    # -- topology ----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The ring epoch placements were computed under."""
        return self.ring.epoch

    @property
    def shard_engines(self) -> List[DedupEngine]:
        """The leaf engines, shard-id order (fsck/scrub iterate these)."""
        return [self._leaves[s] for s in self.ring.shards]

    def shard_of(self, fingerprint: bytes) -> int:
        return self.ring.shard_for_key(fingerprint)

    def _route(self, fingerprint: bytes) -> DedupEngine:
        return self._leaves[self.ring.shard_for_key(fingerprint)]

    # -- single-engine API -------------------------------------------------

    def store(self, fingerprint: bytes, chunk: bytes) -> bool:
        shard = self.ring.shard_for_key(fingerprint)
        self._fanout.record(shard, 1)
        return self._leaves[shard].store(fingerprint, chunk)

    def contains(self, fingerprint: bytes) -> bool:
        return self._route(fingerprint).contains(fingerprint)

    def load(self, fingerprint: bytes) -> bytes:
        return self._route(fingerprint).load(fingerprint)

    def locate(self, fingerprint: bytes) -> ChunkLocation:
        return self._route(fingerprint).locate(fingerprint)

    def load_many(
        self,
        fingerprints: Sequence[bytes],
        lookahead_window: Optional[int] = None,
    ) -> List[bytes]:
        """Batch reads, grouped per shard, results in request order.

        Per-shard sub-batches preserve the caller's relative order, so
        each shard's container look-ahead sees the same access pattern
        a single engine would for those fingerprints.
        """
        routed = self._fanout.run(
            [self.ring.shard_for_key(f) for f in fingerprints],
            fingerprints,
            lambda shard, sub: self._leaves[shard].load_many(
                sub, lookahead_window=lookahead_window
            ),
        )
        return ShardFanout.scatter(routed, len(fingerprints))

    def flush(self) -> None:
        for shard in self.ring.shards:
            self._leaves[shard].flush()

    def close(self) -> None:
        for shard in self.ring.shards:
            self._leaves[shard].close()

    def physical_bytes(self) -> int:
        return sum(
            self._leaves[s].physical_bytes() for s in self.ring.shards
        )

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> DedupStats:
        """Aggregate logical/physical accounting across shards."""
        total = DedupStats()
        for leaf in self._leaves.values():
            total.logical_chunks += leaf.stats.logical_chunks
            total.logical_bytes += leaf.stats.logical_bytes
            total.unique_chunks += leaf.stats.unique_chunks
            total.unique_bytes += leaf.stats.unique_bytes
        return total

    def container_count(self) -> int:
        return sum(leaf.container_count() for leaf in self._leaves.values())

    def routed_counts(self) -> Dict[int, int]:
        """Cumulative keys routed per shard (imbalance diagnostics)."""
        return self._fanout.counts


def shard_directories(directory) -> List[Tuple[int, Path]]:
    """``(shard_id, path)`` pairs under ``<directory>/shards``, sorted."""
    root = Path(directory) / SHARDS_DIRNAME
    if not root.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    for entry in root.iterdir():
        if entry.is_dir() and entry.name.isdigit():
            found.append((int(entry.name), entry))
    return sorted(found)


__all__ = [
    "SHARDS_DIRNAME",
    "ShardFanout",
    "ShardedDedupEngine",
    "shard_directories",
]
