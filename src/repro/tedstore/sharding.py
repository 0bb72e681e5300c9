"""Sharded key-manager front over pooled sketch-observer shards.

The KM half of ROADMAP item 2 (DESIGN.md §15). A
:class:`ShardedKeyManager` is a
:class:`~repro.tedstore.keymanager.KeyManagerService` — the wire
layer, the in-process transport, and the client pipeline cannot tell
them apart — that splits frequency counting across N Count-Min sketch
shards selected by the consistent-hash ring.

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

Every shard is a :class:`ShardObserverService` — an observer key
manager plus its durable ``km_state.py`` store under
``<state_root>/shards/<k>`` (log-before-ack, snapshot+delta) — and the
front reaches its observers only through a **pool**:
``observe(shard_id, client_id, sequence, hash_vectors)`` behind one
:class:`~repro.storage.sharded.ShardFanout` call per keygen batch. Two
pools exist. :class:`LocalKmShardPool` holds the observers in this
process and calls ``handle_observe`` directly;
:class:`~repro.tedstore.fleet.RemoteKmShardPool` (picked when the ring
publishes a per-shard endpoint map, DESIGN.md §17) reaches ``repro
serve-shard --role km`` processes over guarded routes, so each shard
is an independent failure domain. Selection never differs — the front
owns the RNG, ``t``, the tuner and the tracking map either way — so
seeds stay bit-identical, and the ``shards/<k>`` directories are the
same in both shapes.

The front's own durable needs are tiny — the tune trajectory and the
request floor logged with each tune — recorded in ``front.log``. Where
the observers live in-process the front additionally recovers the
exact state from them (requests = sum of shard requests, tracking map
= union of shard maps) and keeps their ``t`` / tracking maps mirroring
its own across tunes; remote observers recover in their own processes
and keep no tracking map at all.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.ted import TedKeyManager
from repro.storage.sharded import SHARDS_DIRNAME, ShardFanout
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.km_state import KeyManagerStateStore, RestoreReport
from repro.tedstore.messages import ShardObserveRequest, ShardObserveResponse
from repro.tedstore.ring import HashRing, load_ring, store_ring
from repro.utils.varint import decode_uvarint, encode_uvarint

RING_FILENAME = "ring.json"
FRONT_LOG_FILENAME = "front.log"


def make_shard_observer(
    front: TedKeyManager, tracking: bool = False
) -> TedKeyManager:
    """A sketch-observer key manager matching ``front``'s geometry.

    Observers count frequencies (:meth:`TedKeyManager.estimate_batch`)
    but never select seeds or tune: ``probabilistic=False`` means no
    RNG is ever constructed or consumed, and ``batch_size=None`` means
    no self-retuning — both are the front's exclusive jobs.

    An observer is fixed-``t`` shaped, so it keeps no per-identity
    frequency map: the front owns the tuner's input, and a map nobody
    clears would grow with every distinct identity and ride along in
    every snapshot. ``tracking`` is for the front's in-process observers
    only — the front clears their maps at each tune and reads them back
    to recover its own map exactly after a crash.
    """
    fted = tracking and front.is_fted
    observer = TedKeyManager(
        secret=front.secret,
        t=None if fted else front.t,
        blowup_factor=front.blowup_factor if fted else None,
        batch_size=None,
        sketch_rows=front.sketch.rows,
        sketch_width=front.sketch.width,
        probabilistic=False,
        conservative_sketch=front.sketch.conservative,
        algorithm=front._seeder.algorithm,
    )
    observer.t = front.t
    return observer


class ShardObserverService:
    """One KM sketch-observer shard, in-process or as its own process.

    Owns a single observer key manager plus its durable ``km_state``
    store under ``shards/<k>``. Held by a :class:`LocalKmShardPool`
    inside the front, or served by ``repro serve-shard --role km``
    (DESIGN.md §17) — the same class over the same directory, so a
    deployment moves between the two without migrating state.
    ``handle_observe`` updates the sketch and logs the sub-batch
    *before* the estimates are released — the log-before-ack contract
    that makes a front's replay of a retried batch idempotent after
    the observer is killed and restarted.

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
        self._store: Optional[KeyManagerStateStore] = None
        self.restore_report = RestoreReport()
        if state_dir is not None:
            self._store = KeyManagerStateStore(
                Path(state_dir),
                snapshot_every=snapshot_every,
                sync_every=sync_every,
            )
            self.restore_report = self._store.restore_into(key_manager)

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
            if self._store is not None:
                self._store.log_batch(
                    request.client_id,
                    request.sequence,
                    request.hash_vectors,
                    key_manager=self.key_manager,
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
                self._store.snapshot(self.key_manager)

    def close(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.snapshot(self.key_manager)
                self._store.close()
                self._store = None


class LocalKmShardPool:
    """The front's observers, in this process.

    In-process counterpart of :class:`~repro.tedstore.fleet.\
RemoteKmShardPool`: the same ``admit`` / ``observe`` / ``shard_health``
    / ``close`` surface, with ``handle_observe`` called directly — no
    transport, so no breaker and nothing to refuse admission.
    ``observers`` exposes the services themselves: the front recovers
    its exact state from them and keeps their ``t`` / tracking maps
    mirroring its own.
    """

    def __init__(self, observers: Dict[int, ShardObserverService]) -> None:
        self.observers = observers

    def admit(self, shard_id: int) -> None:
        pass

    def observe(
        self,
        shard_id: int,
        client_id: str,
        sequence: int,
        hash_vectors: List[List[int]],
    ) -> List[int]:
        return self.observers[shard_id].handle_observe(
            ShardObserveRequest(
                client_id=client_id,
                sequence=sequence,
                hash_vectors=hash_vectors,
            )
        ).estimates

    def shard_health(self) -> Dict[int, str]:
        return {shard_id: "closed" for shard_id in sorted(self.observers)}

    def close(self) -> None:
        for observer in self.observers.values():
            observer.close()


class ShardedKeyManager(KeyManagerService):
    """Ring-routed key-manager front, wire-compatible with the single KM.

    A :class:`~repro.tedstore.keymanager.KeyManagerService` whose seed
    step fans the batch out to the observer pool and then applies the
    front's rule (:meth:`TedKeyManager.select_seeds`); request handling,
    the sequence check, rate limiting and the lock are inherited.

    Args:
        key_manager: the front key manager — owns the seeder/RNG,
            ``t``, the tuner, and the FTED tracking map. Its own sketch
            is never updated (the shards count).
        ring: placement; optional when ``state_root`` already holds a
            persisted ``ring.json``.
        rate_limiter: optional, same contract as the single service.
        state_root: directory for durable state (``ring.json``,
            ``front.log``, ``shards/<k>/``); ``None`` = in-memory.
        shard_pool: the observer pool (duck-typed). When ``None``, a
            ring that publishes endpoints gets a
            :class:`~repro.tedstore.fleet.RemoteKmShardPool` built from
            ``fleet_options`` — endpoints in the ring mean the observers
            live in their own processes (DESIGN.md §17) — and any other
            ring a :class:`LocalKmShardPool` over ``shards/<k>``.
        fleet_options: kwargs for the auto-built remote pool (retry
            policy, breaker tuning, heartbeat interval, timeouts).

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
        super().__init__(key_manager, rate_limiter)
        self._state_root = Path(state_root) if state_root else None
        self._front_log: Optional[WriteAheadLog] = None

        if self._state_root is not None:
            self._state_root.mkdir(parents=True, exist_ok=True)
            from repro.tedstore import reshard as reshard_mod

            reshard_mod.refuse_pending_reshard(self._state_root)
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

        if shard_pool is None:
            if ring.endpoints:
                from repro.tedstore.fleet import RemoteKmShardPool

                shard_pool = RemoteKmShardPool(ring, **(fleet_options or {}))
            else:
                shard_pool = LocalKmShardPool(
                    {
                        shard_id: self._local_observer(
                            shard_id, snapshot_every, sync_every
                        )
                        for shard_id in ring.shards
                    }
                )
        self._pool = shard_pool
        self._fanout = ShardFanout("km", ring.shards)
        self.restore_report = self._restore()

    def _local_observer(
        self, shard_id: int, snapshot_every: int, sync_every: int
    ) -> ShardObserverService:
        state_dir = None
        if self._state_root is not None:
            state_dir = self._state_root / SHARDS_DIRNAME / str(shard_id)
        return ShardObserverService(
            shard_id,
            make_shard_observer(self.key_manager, tracking=True),
            state_dir=state_dir,
            ring_epoch=self.ring.epoch,
            snapshot_every=snapshot_every,
            sync_every=sync_every,
        )

    # -- recovery ----------------------------------------------------------

    def _restore(self) -> RestoreReport:
        """Rebuild the front's state from ``front.log`` and the pool.

        ``front.log`` holds what is the front's alone: ``t``, the tune
        count, and the request count at each tune — the position as of
        the last tune, not since. Observers recover their own stores
        (snapshot + delta replay) wherever they live; the ones living
        in this process then make the recovery exact — requests = sum
        of shard requests (so the position-in-batch too), tracking map
        = union of shard maps (an identity lives on exactly one shard).
        Without them the position restarts at the last tune and the map
        empty, which can only *under*-count one tune window's
        frequencies (the next window converges; DESIGN.md §15).
        """
        report = RestoreReport()
        front = self.key_manager
        requests = 0
        if self._state_root is not None:
            front_log_path = self._state_root / FRONT_LOG_FILENAME
            if front_log_path.exists():
                last_t = None
                tunes = 0
                for _, key, value in WriteAheadLog.replay(front_log_path):
                    if key == b"tune":
                        last_t, offset = decode_uvarint(value, 0)
                        requests, _ = decode_uvarint(value, offset)
                        tunes += 1
                if last_t is not None and front.is_fted:
                    front.t = last_t
                    front.stats.batches_tuned = tunes
                report.deltas_replayed = tunes
            self._front_log = WriteAheadLog(front_log_path, scope="km.front")

        observers = self._pool.observers
        tracked: Dict[Tuple[int, ...], int] = {}
        for shard_id in sorted(observers):
            observer = observers[shard_id]
            sub = observer.restore_report
            report.snapshot_loaded = report.snapshot_loaded or (
                sub.snapshot_loaded
            )
            report.deltas_replayed += sub.deltas_replayed
            tracked.update(observer.key_manager._freq_by_identity)
            observer.key_manager.t = front.t
        requests = max(
            requests,
            sum(o.key_manager.stats.requests for o in observers.values()),
        )
        if requests:
            front.stats.requests = requests
            if front.batch_size is not None:
                front._requests_in_batch = requests % front.batch_size
        if front.is_fted and tracked:
            front._freq_by_identity = tracked
        return report

    # -- service interface -------------------------------------------------

    def ring_epoch(self) -> int:
        """The deployment ring epoch (echoed in PONG heartbeats)."""
        return self.ring.epoch

    def _seeds_for_batch(
        self, vectors: List[List[int]], client_id: str, sequence: int
    ) -> List[bytes]:
        """Observe on the owning shards, then select at the front.

        The inherited ``handle_keygen_batched`` checks the stream's
        sequence once, before any sub-batch fans out, and the estimates
        come back in arrival order, so the client's contract (DESIGN.md
        §10) is untouched by sharding.
        """
        owners = [self.ring.shard_for_hashes(vector) for vector in vectors]
        estimates = self._observe(client_id, sequence, vectors, owners)
        return self._select(vectors, owners, estimates)

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
        single-sketch run exactly. Every observer updates and logs its
        durable sketch before replying (the km_state ack contract).

        Every target observer is admitted before any is called, so a
        batch aimed at an open breaker raises ShardUnavailableError
        without touching the healthy shards' sketches. An observer
        dying *mid*-batch still leaves the earlier sub-batches counted;
        the client's retried batch re-observes them — over-counting,
        the fail-safe direction, and the same stance as retried wire
        batches (DESIGN.md §8).
        """
        routed = self._fanout.run(
            owners,
            vectors,
            lambda shard_id, sub: self._pool.observe(
                shard_id, client_id, sequence, sub
            ),
            admit=self._pool.admit,
        )
        return ShardFanout.scatter(routed, len(vectors))

    def _select(
        self,
        vectors: List[List[int]],
        owners: List[int],
        estimates: List[int],
    ) -> List[bytes]:
        """Eq. 3 selection over the whole batch, in arrival order.

        :meth:`TedKeyManager.select_seeds` — single RNG stream, single
        ``t``, single tracking map, FTED retunes landing mid-batch —
        then, only if the call crossed tunes, their durable trace: one
        ``front.log`` record per tune (``t`` and the request count at
        its boundary), logged before the shard maps reset. A crash
        between the two replays stale map entries into the next tune —
        frequency over-counting, the fail-safe direction (same stance
        as km_state replay of retried batches).
        """
        front = self.key_manager
        requests, in_batch = front.stats.requests, front._requests_in_batch
        tunes = front.stats.batches_tuned
        seeds = front.select_seeds(vectors, estimates)
        tunes = front.stats.batches_tuned - tunes
        if not tunes:
            return seeds
        # Boundary i falls ``first + i * batch_size`` requests into the call.
        first, size = front.batch_size - in_batch, front.batch_size
        if self._front_log is not None:
            for i, t in enumerate(front.stats.t_history[-tunes:]):
                count = requests + first + i * size
                self._front_log.append(
                    OP_PUT,
                    b"tune",
                    bytes(encode_uvarint(t)) + bytes(encode_uvarint(count)),
                )
                self._front_log.sync()
        # In-process mirrors keep the front's t, and at rest the union
        # of their maps is the front's: the identities selected after
        # the last boundary. Remote observers never see t (estimates
        # don't use it) and track nothing.
        mirrors = self._pool.observers
        if not mirrors:
            return seeds
        for observer in mirrors.values():
            observer.key_manager.t = front.t
            observer.key_manager._freq_by_identity.clear()
        tail = first + (tunes - 1) * size
        for vector, owner in zip(vectors[tail:], owners[tail:]):
            identity = tuple(vector)
            mirrors[owner].key_manager._freq_by_identity[identity] = (
                front._freq_by_identity[identity]
            )
        for observer in mirrors.values():
            observer.flush()
        return seeds

    # -- reporting / lifecycle ---------------------------------------------

    def shard_key_managers(self) -> Dict[int, TedKeyManager]:
        """The in-process observers' key managers, keyed by shard id.

        Empty when the observers live in their own processes — query
        those over the wire (stats / PING).
        """
        return {
            shard_id: observer.key_manager
            for shard_id, observer in sorted(self._pool.observers.items())
        }

    def shard_health(self) -> Dict[int, str]:
        """Breaker state per shard (in-process observers: all closed)."""
        return self._pool.shard_health()

    def routed_counts(self) -> Dict[int, int]:
        return self._fanout.counts

    def stats(self) -> List[Tuple[str, int]]:
        pairs = super().stats() + [("shards", len(self.ring))]
        for shard_id, state in sorted(self.shard_health().items()):
            pairs.append(
                (f"shard_{shard_id}_healthy", int(state == "closed"))
            )
        return pairs

    def close(self) -> None:
        with self._lock:
            self._pool.close()
            if self._front_log is not None:
                self._front_log.close()
                self._front_log = None


__all__ = [
    "FRONT_LOG_FILENAME",
    "RING_FILENAME",
    "LocalKmShardPool",
    "ShardObserverService",
    "ShardedKeyManager",
    "make_shard_observer",
]
