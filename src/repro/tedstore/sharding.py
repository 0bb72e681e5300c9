"""Sharded key-manager front and client-side shard routing.

The KM half of ROADMAP item 2 (DESIGN.md §15). A
:class:`ShardedKeyManager` presents exactly the
:class:`~repro.tedstore.keymanager.KeyManagerService` interface — the
wire layer, the in-process transport, and the client pipeline cannot
tell them apart — but splits frequency counting across N Count-Min
sketch shards selected by the consistent-hash ring.

The design splits TED's keygen into its two halves:

* **Counting is shardable.** A short-hash vector always routes to the
  same shard, so that shard's sketch sees every occurrence of every
  identity it owns — its estimates equal a single sketch's estimates
  up to collision noise, and the *union* of shard states is checked
  byte-identical to the single-sketch baseline by the shard-parity
  differential gate (a shard's sketch is sparser, so collisions can
  only decrease; the gate proves they match exactly at test geometry).
* **Selection is not.** Eq. 3's probabilistic draw consumes one global
  RNG stream in request order, and FTED's ``t`` is one global knob
  retuned on a global request counter. Those stay on the *front*: the
  front owns the seeder, the RNG, ``t``, the tuner, and the FTED
  frequency-tracking map, and runs selection over the whole batch in
  arrival order after the shards return estimates. That is why a
  sharded deployment derives bit-identical seeds to a single KM.

Each shard gets its own durable ``km_state.py`` state directory under
``<state_root>/shards/<k>`` (log-before-ack, snapshot+delta). The
front's own durable needs are tiny — the tune trajectory — recorded in
``front.log``; everything else recovers from the shard states (requests
= sum of shard requests, tracking map = union of shard maps).

**Multi-process mode (DESIGN.md §17).** When the ring publishes a
per-shard endpoint map, the front's observers are *processes*: each
``repro serve-shard --role km`` child runs a
:class:`ShardObserverService` over its own ``shards/<k>`` store, and
the front fans sub-batches over guarded
:class:`~repro.tedstore.fleet.RemoteKmShardPool` routes. Selection is
untouched — the front still owns the RNG, ``t``, the tuner, and the
tracking map — so seeds stay bit-identical while each shard becomes
an independent failure domain. The front's restore path then replays
``front.log`` alone (tune trajectory + request floor); observer
sketches recover in their own processes.

:class:`ShardRoutingProvider` is the provider-side client hook: a
transport wrapper that splits chunk batches by ring placement so a
client can talk to per-shard provider processes (or just meter
placement against one process). Order within each shard's sub-batch
preserves arrival order, which is all the dedup engine's determinism
needs.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.ted import TedKeyManager
from repro.obs import tracing
from repro.storage.sharded import ShardRouteMeter
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.tedstore.keymanager import KeygenStream
from repro.tedstore.km_state import KeyManagerStateStore, RestoreReport
from repro.tedstore.messages import (
    BatchedKeyGenRequest,
    BatchedKeyGenResponse,
    Chunks,
    GetChunks,
    KeyGenRequest,
    KeyGenResponse,
    PutChunks,
    PutChunksResponse,
    ShardObserveRequest,
    ShardObserveResponse,
)
from repro.tedstore.ring import HashRing, load_ring, store_ring
from repro.utils.varint import decode_uvarint, encode_uvarint

RING_FILENAME = "ring.json"
FRONT_LOG_FILENAME = "front.log"
SHARDS_DIRNAME = "shards"


def make_shard_observer(front: TedKeyManager) -> TedKeyManager:
    """A sketch-observer key manager matching ``front``'s geometry.

    Observers count frequencies (:meth:`TedKeyManager.estimate_batch`)
    but never select seeds or tune: ``probabilistic=False`` means no
    RNG is ever constructed or consumed, and ``batch_size=None`` means
    no self-retuning — both are the front's exclusive jobs.
    """
    observer = TedKeyManager(
        secret=front.secret,
        t=None if front.is_fted else front.t,
        blowup_factor=front.blowup_factor,
        batch_size=None,
        sketch_rows=front.sketch.rows,
        sketch_width=front.sketch.width,
        probabilistic=False,
        conservative_sketch=front.sketch.conservative,
        algorithm=front._seeder.algorithm,
    )
    observer.t = front.t
    return observer


class _KmShard:
    """One shard: an observer key manager plus its durable store."""

    def __init__(
        self,
        shard_id: int,
        key_manager: TedKeyManager,
        store: Optional[KeyManagerStateStore],
    ) -> None:
        self.shard_id = shard_id
        self.key_manager = key_manager
        self.store = store


class ShardObserverService:
    """One KM sketch-observer shard served as its own process.

    The ``repro serve-shard --role km`` payload (DESIGN.md §17): owns
    a single observer key manager plus its durable ``km_state`` store
    (the same ``shards/<k>`` directory an in-process front would use,
    so a deployment can move between in-process and fleet serving
    without migrating state). Answers ``MSG_SHARD_OBSERVE`` by
    updating the sketch and logging the sub-batch *before* the
    estimates are released — the log-before-ack contract that makes a
    front's replay of a retried batch idempotent after this process
    is killed and restarted.

    Args:
        shard_id: this shard's id in the deployment ring.
        key_manager: an observer KM (:func:`make_shard_observer`
            geometry: ``probabilistic=False``, ``batch_size=None``).
        state_dir: durable store directory; ``None`` = in-memory.
        ring_epoch: the deployment ring's epoch, echoed in PONG so
            probes catch a shard serving a stale ring.
    """

    def __init__(
        self,
        shard_id: int,
        key_manager: TedKeyManager,
        state_dir=None,
        ring_epoch: int = 0,
        snapshot_every: int = 64,
        sync_every: int = 1,
    ) -> None:
        self.shard_id = int(shard_id)
        self.key_manager = key_manager
        self._epoch = int(ring_epoch)
        self._lock = threading.Lock()
        self._last_sequence: Dict[str, int] = {}
        self._store: Optional[KeyManagerStateStore] = None
        self.restore_report = RestoreReport()
        if state_dir is not None:
            self._store = KeyManagerStateStore(
                Path(state_dir),
                snapshot_every=snapshot_every,
                sync_every=sync_every,
            )
            self.restore_report = self._store.restore_into(key_manager)
            self._last_sequence.update(self.restore_report.last_sequence)

    def ring_epoch(self) -> int:
        return self._epoch

    def handle_observe(
        self, request: ShardObserveRequest, peer: str = "local"
    ) -> ShardObserveResponse:
        """Observe one sub-batch; durable before the reply is released."""
        with self._lock:
            estimates = self.key_manager.estimate_batch(
                request.hash_vectors
            )
            self._last_sequence[request.client_id] = request.sequence
            if self._store is not None:
                self._store.log_batch(
                    request.client_id,
                    request.sequence,
                    request.hash_vectors,
                    key_manager=self.key_manager,
                    last_sequence=self._last_sequence,
                )
        return ShardObserveResponse(estimates=estimates)

    def stats(self) -> List[Tuple[str, int]]:
        km = self.key_manager
        return [
            ("requests", km.stats.requests),
            ("shard_id", self.shard_id),
            ("ring_epoch", self._epoch),
        ]

    def flush(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.snapshot(self.key_manager, self._last_sequence)

    def close(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.snapshot(self.key_manager, self._last_sequence)
                self._store.close()
                self._store = None


class ShardedKeyManager:
    """Ring-routed key-manager front, wire-compatible with the single KM.

    Drop-in for :class:`~repro.tedstore.keymanager.KeyManagerService`:
    ``serve_key_manager`` and :class:`~repro.tedstore.inprocess.\
LocalKeyManager` duck-type against ``handle_keygen`` /
    ``handle_keygen_batched`` / ``stats`` / ``close``.

    Args:
        key_manager: the front key manager — owns the seeder/RNG,
            ``t``, the tuner, and the FTED tracking map. Its own sketch
            is never updated (the shards count).
        ring: placement; optional when ``state_root`` already holds a
            persisted ``ring.json``.
        rate_limiter: optional, same contract as the single service.
        state_root: directory for durable state (``ring.json``,
            ``front.log``, ``shards/<k>/``); ``None`` = in-memory.
        shard_pool: a :class:`~repro.tedstore.fleet.RemoteKmShardPool`
            (or duck-type) for multi-process mode. When ``None`` and
            the ring publishes endpoints, one is built automatically
            from ``fleet_options`` — endpoints in the ring mean the
            observers live in their own processes (DESIGN.md §17).
        fleet_options: kwargs for the auto-built pool (retry policy,
            breaker tuning, heartbeat interval, timeouts).

    Example:
        >>> front = TedKeyManager(secret=b"kappa", t=5)
        >>> service = ShardedKeyManager(front, HashRing.build(3))
        >>> len(service.handle_keygen(KeyGenRequest([[1, 2]])).seeds)
        1
    """

    def __init__(
        self,
        key_manager: TedKeyManager,
        ring: Optional[HashRing] = None,
        rate_limiter=None,
        state_root=None,
        snapshot_every: int = 64,
        sync_every: int = 1,
        shard_pool=None,
        fleet_options: Optional[Dict] = None,
    ) -> None:
        self.key_manager = key_manager
        self.rate_limiter = rate_limiter
        self._lock = threading.Lock()
        self._last_sequence: Dict[str, int] = {}
        self._state_root = Path(state_root) if state_root else None
        self._front_log: Optional[WriteAheadLog] = None

        if self._state_root is not None:
            self._state_root.mkdir(parents=True, exist_ok=True)
            from repro.tedstore import reshard as reshard_mod

            if reshard_mod.pending_reshard(self._state_root):
                raise RuntimeError(
                    "unfinished reshard in KM state dir "
                    f"{self._state_root}; run `repro reshard` to complete "
                    "the migration before serving"
                )
            ring_path = self._state_root / RING_FILENAME
            if ring_path.exists():
                persisted = load_ring(ring_path)
                if ring is not None and persisted != ring:
                    raise ValueError(
                        "ring config mismatch: state dir holds "
                        f"{persisted!r}; run `repro reshard` to change "
                        "shard membership"
                    )
                ring = persisted
            elif ring is not None:
                store_ring(ring_path, ring)
        if ring is None:
            raise ValueError("a HashRing (or persisted ring.json) is required")
        self.ring = ring

        self._shards: Dict[int, _KmShard] = {}
        self._pool = shard_pool
        if self._pool is None and ring.endpoints:
            from repro.tedstore.fleet import RemoteKmShardPool

            self._pool = RemoteKmShardPool(ring, **(fleet_options or {}))
        self._meter = ShardRouteMeter("km", ring.shards)
        if self._pool is not None:
            self.restore_report = self._restore_remote()
        else:
            for shard_id in ring.shards:
                store = None
                if self._state_root is not None:
                    store = KeyManagerStateStore(
                        self._state_root / SHARDS_DIRNAME / str(shard_id),
                        snapshot_every=snapshot_every,
                        sync_every=sync_every,
                    )
                self._shards[shard_id] = _KmShard(
                    shard_id, make_shard_observer(key_manager), store
                )
            self.restore_report = self._restore()

    # -- recovery ----------------------------------------------------------

    def _restore(self) -> RestoreReport:
        """Rebuild front + shard state from the per-shard stores.

        Shard stores recover independently (snapshot + delta replay);
        the front re-derives its global state from them: requests = sum
        of shard requests, position-in-batch = requests mod batch size
        (tunes land exactly on batch boundaries), tracking map = union
        of shard maps (an identity lives on exactly one shard). ``t``
        and the tune count replay from ``front.log`` — the only state
        that is the front's alone.
        """
        report = RestoreReport()
        front = self.key_manager
        for shard_id in self.ring.shards:
            shard = self._shards[shard_id]
            if shard.store is None:
                continue
            sub = shard.store.restore_into(shard.key_manager)
            report.snapshot_loaded = report.snapshot_loaded or (
                sub.snapshot_loaded
            )
            report.deltas_replayed += sub.deltas_replayed
            for client_id, sequence in sub.last_sequence.items():
                if sequence > report.last_sequence.get(client_id, -1):
                    report.last_sequence[client_id] = sequence
        self._last_sequence.update(report.last_sequence)

        if self._state_root is not None:
            front_log_path = self._state_root / FRONT_LOG_FILENAME
            if front.is_fted and front_log_path.exists():
                last_t = None
                tunes = 0
                for _, key, value in WriteAheadLog.replay(front_log_path):
                    if key == b"tune":
                        last_t, _ = decode_uvarint(value, 0)
                        tunes += 1
                if last_t is not None:
                    front.t = last_t
                    front.stats.batches_tuned = tunes
            self._front_log = WriteAheadLog(front_log_path, scope="km.front")

        total_requests = sum(
            self._shards[s].key_manager.stats.requests
            for s in self.ring.shards
        )
        if total_requests:
            front.stats.requests = total_requests
            if front.batch_size is not None:
                front._requests_in_batch = total_requests % front.batch_size
        if front.is_fted:
            merged: Dict[Tuple[int, ...], int] = {}
            for shard_id in self.ring.shards:
                merged.update(
                    self._shards[shard_id].key_manager._freq_by_identity
                )
            if merged:
                front._freq_by_identity = merged
        for shard_id in self.ring.shards:
            self._shards[shard_id].key_manager.t = front.t
        return report

    def _restore_remote(self) -> RestoreReport:
        """Front-only restore for multi-process mode.

        Observer sketches recover inside their own processes (the §12
        km_state path); the front replays just ``front.log``: ``t``,
        the tune count, and the request floor logged with each tune.
        Tunes land exactly on batch boundaries, so the floor restores
        the position-in-batch too. The FTED tracking map restarts
        empty — identities observed before the restart rejoin the map
        as they recur, which can only *under*-count one tune window's
        frequencies relative to a never-restarted front (the next
        window converges); the acceptable degradation is documented
        in DESIGN.md §17.
        """
        report = RestoreReport()
        front = self.key_manager
        if self._state_root is not None:
            front_log_path = self._state_root / FRONT_LOG_FILENAME
            if front_log_path.exists():
                last_t = None
                last_requests = 0
                tunes = 0
                for _, key, value in WriteAheadLog.replay(front_log_path):
                    if key == b"tune":
                        last_t, offset = decode_uvarint(value, 0)
                        last_requests, _ = decode_uvarint(value, offset)
                        tunes += 1
                if last_t is not None and front.is_fted:
                    front.t = last_t
                    front.stats.batches_tuned = tunes
                if last_requests:
                    front.stats.requests = last_requests
                    if front.batch_size is not None:
                        front._requests_in_batch = (
                            last_requests % front.batch_size
                        )
                report.deltas_replayed = tunes
            self._front_log = WriteAheadLog(front_log_path, scope="km.front")
        return report

    # -- service interface -------------------------------------------------

    def ring_epoch(self) -> int:
        """The deployment ring epoch (echoed in PONG heartbeats)."""
        return self.ring.epoch

    def handle_keygen(
        self,
        request: KeyGenRequest,
        client_id: str = "local",
        sequence: int = 0,
    ) -> KeyGenResponse:
        if self.rate_limiter is not None:
            self.rate_limiter.check(client_id, len(request.hash_vectors))
        with tracing.get_tracer().span(
            "km.sharded_keygen",
            attributes={
                "batch": len(request.hash_vectors),
                "shards": len(self.ring),
            },
        ):
            with self._lock:
                vectors = request.hash_vectors
                owners = [
                    self.ring.shard_for_hashes(vector) for vector in vectors
                ]
                estimates = self._observe(client_id, sequence, vectors, owners)
                seeds = self._select(vectors, owners, estimates)
                return KeyGenResponse(
                    seeds=seeds, current_t=self.key_manager.t
                )

    def handle_keygen_batched(
        self,
        request: BatchedKeyGenRequest,
        client_id: str = "local",
        *,
        stream: KeygenStream,
    ) -> BatchedKeyGenResponse:
        """Sequenced batches, same ordering contract as the single KM.

        The stream's sequence check happens once at the front —
        sub-batches fan out to shards only after the stream position is
        validated, and the reply reassembles every shard's estimates
        back into arrival order, so the client's contract (DESIGN.md
        §10) is untouched by sharding.
        """
        stream.admit(request.sequence)
        with self._lock:
            self._last_sequence[client_id] = request.sequence
        response = self.handle_keygen(
            KeyGenRequest(hash_vectors=request.hash_vectors),
            client_id=client_id,
            sequence=request.sequence,
        )
        return BatchedKeyGenResponse(
            sequence=request.sequence,
            seeds=response.seeds,
            current_t=response.current_t,
        )

    # -- the two phases ----------------------------------------------------

    def _observe(
        self,
        client_id: str,
        sequence: int,
        vectors: List[List[int]],
        owners: List[int],
    ) -> List[int]:
        """Fan the batch out to shard sketches; gather estimates.

        Sub-batches preserve arrival order, and every occurrence of an
        identity goes to the same shard, so per-identity update order —
        the only order a Count-Min sketch is sensitive to — matches the
        single-sketch run exactly. Durable shards log before the
        response is released (the km_state ack contract).
        """
        groups: Dict[int, List[int]] = {}
        for position, owner in enumerate(owners):
            groups.setdefault(owner, []).append(position)
        estimates = [0] * len(vectors)
        for shard_id in sorted(groups):
            positions = groups[shard_id]
            sub_batch = [vectors[p] for p in positions]
            self._meter.record(shard_id, len(positions))
            if self._pool is not None:
                # Multi-process: the observer process updates + logs its
                # durable sketch before replying (same ack contract). A
                # dead observer raises ShardUnavailableError here; the
                # client's retried batch re-observes at the healthy
                # shards — over-counting, the fail-safe direction, and
                # the same stance as retried wire batches (DESIGN.md §8).
                sub_estimates = self._pool.observe(
                    shard_id, client_id, sequence, sub_batch
                )
            else:
                shard = self._shards[shard_id]
                sub_estimates = shard.key_manager.estimate_batch(sub_batch)
                if shard.store is not None:
                    shard.store.log_batch(
                        client_id,
                        sequence,
                        sub_batch,
                        key_manager=shard.key_manager,
                        last_sequence=self._last_sequence,
                    )
            for position, estimate in zip(positions, sub_estimates):
                estimates[position] = estimate
        return estimates

    def _select(
        self,
        vectors: List[List[int]],
        owners: List[int],
        estimates: List[int],
    ) -> List[bytes]:
        """Eq. 3 selection over the whole batch, in arrival order.

        Single RNG stream, single ``t``, single tracking map — the
        exact per-request interleaving of a single key manager,
        including FTED retunes landing mid-batch.
        """
        front = self.key_manager
        seeds: List[bytes] = []
        tuned = False
        # Selections since the last tune: a mid-batch retune clears the
        # shard maps (they mirror the front map at rest), so identities
        # selected after the boundary are re-tracked into their owners
        # below, restoring front-map == union-of-shard-maps.
        since_tune: List[Tuple[int, Tuple[int, ...], int]] = []
        for vector, owner, frequency in zip(vectors, owners, estimates):
            identity = tuple(vector)
            if front.is_fted:
                front._freq_by_identity[identity] = frequency
            seeds.append(front._seeder.select_seed(vector, frequency, front.t))
            front.stats.requests += 1
            since_tune.append((owner, identity, frequency))
            if front.batch_size is not None:
                front._requests_in_batch += 1
                if front._requests_in_batch >= front.batch_size:
                    self._tune_locked()
                    front._requests_in_batch = 0
                    tuned = True
                    since_tune = []
        if tuned and self._pool is None:
            if front.is_fted:
                for owner, identity, frequency in since_tune:
                    self._shards[owner].key_manager._freq_by_identity[
                        identity
                    ] = frequency
            self._snapshot_shards()
        return seeds

    def _tune_locked(self) -> None:
        """FTED batch-boundary retune, mirroring ``_retune_from_tracked``.

        The new ``t`` is logged to ``front.log`` before the shard maps
        clear; a crash between the two replays stale map entries into
        the next tune — frequency over-counting, the fail-safe
        direction (same stance as km_state replay of retried batches).
        """
        front = self.key_manager
        frequencies = list(front._freq_by_identity.values())
        if frequencies:
            front.tune_from_frequencies(frequencies)
        front._freq_by_identity.clear()
        if self._front_log is not None:
            self._front_log.append(
                OP_PUT,
                b"tune",
                bytes(encode_uvarint(front.t))
                + bytes(encode_uvarint(front.stats.requests)),
            )
            self._front_log.sync()
        # Remote observers never see t (estimates don't use it) and own
        # their tracking maps; only in-process shard mirrors need sync.
        for shard_id in self.ring.shards if self._pool is None else ():
            shard = self._shards[shard_id]
            shard.key_manager.t = front.t
            shard.key_manager._freq_by_identity.clear()

    def _snapshot_shards(self) -> None:
        for shard_id in self.ring.shards:
            shard = self._shards[shard_id]
            if shard.store is not None:
                shard.store.snapshot(shard.key_manager, self._last_sequence)

    # -- reporting / lifecycle ---------------------------------------------

    def shard_key_managers(self) -> Dict[int, TedKeyManager]:
        """The shard observers, keyed by shard id (tests, parity gate)."""
        if self._pool is not None:
            raise RuntimeError(
                "shard observers live in their own processes; query them "
                "over the wire (stats / PING)"
            )
        return {
            shard_id: self._shards[shard_id].key_manager
            for shard_id in self.ring.shards
        }

    def shard_health(self) -> Dict[int, str]:
        """Breaker state per shard (multi-process mode; else all closed)."""
        if self._pool is not None:
            return self._pool.shard_health()
        return {shard_id: "closed" for shard_id in self.ring.shards}

    def routed_counts(self) -> Dict[int, int]:
        return self._meter.counts

    def stats(self) -> List[Tuple[str, int]]:
        km = self.key_manager
        pairs = [
            ("requests", km.stats.requests),
            ("batches_tuned", km.stats.batches_tuned),
            ("current_t", km.t),
            ("shards", len(self.ring)),
        ]
        if self._pool is not None:
            for shard_id, state in sorted(self.shard_health().items()):
                pairs.append(
                    (f"shard_{shard_id}_healthy", int(state == "closed"))
                )
        return pairs

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.close()
            for shard_id in self.ring.shards:
                shard = self._shards.get(shard_id)
                if shard is not None and shard.store is not None:
                    shard.store.snapshot(
                        shard.key_manager, self._last_sequence
                    )
                    shard.store.close()
            if self._front_log is not None:
                self._front_log.close()
                self._front_log = None


class ShardRoutingProvider:
    """Client-side transport wrapper routing chunk batches by ring.

    Wraps any provider transport (:class:`~repro.tedstore.inprocess.\
LocalProvider`, :class:`~repro.tedstore.network.RemoteProvider`) and
    splits ``put_chunks``/``get_chunks`` into per-shard sub-batches in
    shard-id order, each preserving arrival order; ``get_chunks``
    results are scattered back into request order. Everything else
    (recipes, stats, close) passes through.
    """

    def __init__(self, transport, ring: HashRing) -> None:
        self._transport = transport
        self.ring = ring
        self._meter = ShardRouteMeter("client", ring.shards)

    def ring_epoch(self) -> int:
        return self.ring.epoch

    def put_chunks(self, request: PutChunks) -> PutChunksResponse:
        groups: Dict[int, List[Tuple[bytes, bytes]]] = {}
        for fingerprint, data in request.chunks:
            shard = self.ring.shard_for_key(fingerprint)
            groups.setdefault(shard, []).append((fingerprint, data))
        stored = duplicates = 0
        for shard in sorted(groups):
            self._meter.record(shard, len(groups[shard]))
            response = self._transport.put_chunks(
                PutChunks(chunks=groups[shard])
            )
            stored += response.stored
            duplicates += response.duplicates
        return PutChunksResponse(stored=stored, duplicates=duplicates)

    def get_chunks(self, request: GetChunks) -> Chunks:
        groups: Dict[int, List[int]] = {}
        for position, fingerprint in enumerate(request.fingerprints):
            shard = self.ring.shard_for_key(fingerprint)
            groups.setdefault(shard, []).append(position)
        results: List[bytes] = [b""] * len(request.fingerprints)
        for shard in sorted(groups):
            positions = groups[shard]
            self._meter.record(shard, len(positions))
            response = self._transport.get_chunks(
                GetChunks(
                    fingerprints=[
                        request.fingerprints[p] for p in positions
                    ]
                )
            )
            for position, chunk in zip(positions, response.chunks):
                results[position] = chunk
        return Chunks(chunks=results)

    def routed_counts(self) -> Dict[int, int]:
        return self._meter.counts

    def __getattr__(self, name: str):
        return getattr(self._transport, name)


__all__ = [
    "FRONT_LOG_FILENAME",
    "RING_FILENAME",
    "SHARDS_DIRNAME",
    "ShardObserverService",
    "ShardRoutingProvider",
    "ShardedKeyManager",
    "make_shard_observer",
]
