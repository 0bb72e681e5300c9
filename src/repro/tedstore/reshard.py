"""Shard add/remove with WAL-logged, crash-safe state migration.

``repro reshard`` changes ring membership for a provider storage root
and/or a sharded-KM state root. The migration runs against a quiesced
deployment (stop the servers first — RUNBOOK "Resharding"); both
servers refuse to start while a migration is incomplete
(:func:`pending_reshard`), so there is no window where old and new
placement serve traffic at once.

Every migration is driven by a ``reshard.log`` write-ahead log of
**phase records** — ``begin`` (the full old/new ring plan), then one
record per completed barrier — and every phase is idempotent, so a
kill at any point resumes by re-running the unrecorded phases with the
same plan. The named barriers (and their ``storage/crash.py`` points):

provider (in-place chunk movement):
  1. *snapshot* — seal every source shard's open container
     (``reshard.provider.snapshot``);
  2. *copy/delta drain* — walk each source index in sorted fingerprint
     order, storing chunks whose new owner differs into the target
     shard (idempotent: dedup skips chunks already copied;
     ``reshard.provider.copy`` fires per moved chunk), then a second
     verification sweep (``reshard.provider.drain``);
  3. *cutover* — atomically replace ``ring.json`` with the epoch+1
     ring (``reshard.provider.cutover`` plus the ``ring.config.*``
     torn-write points);
  4. *old-shard GC* — drop moved fingerprints from source indexes and
     delete removed shards' directories (``reshard.provider.gc``).

key manager (staged state rebuild, reusing ``km_state.py``):
  1. *snapshot* — fold each source shard's delta log into its snapshot
     via restore+snapshot (``reshard.km.snapshot``), then verify the
     drain (``reshard.km.drain``);
  2. *stage* — build every new shard's state as a pure function of the
     folded sources under ``shards.next/`` (``reshard.km.stage``):
     frequency-map entries move exactly per the new ring; sketches
     merge by elementwise counter sum, which keeps every estimate an
     upper bound of the true frequency — Count-Min's no-underestimate
     guarantee survives migration, so post-reshard key decisions err
     toward treating chunks as *more* frequent (the fail-safe,
     confidentiality-preserving direction);
  3. *cutover* — write the new ``ring.json`` (``reshard.km.cutover``);
  4. *GC* — swap ``shards.next`` into place and remove the old state
     (``reshard.km.gc``).

A crash anywhere re-converges: re-running ``repro reshard`` with the
same target completes the recorded plan, and the resharding crash
matrix (tests/integration/test_reshard_crash_matrix.py) kills at every
barrier and asserts the recovered state equals the clean-migration
result.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.ted import TedKeyManager
from repro.obs import metrics as obs_metrics
from repro.storage import crash
from repro.storage.dedup import DedupEngine
from repro.storage.sharded import SHARDS_DIRNAME
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.tedstore import km_state as km_state_mod
from repro.tedstore.km_state import KeyManagerStateStore
from repro.tedstore.ring import (
    DEFAULT_VNODES,
    HashRing,
    load_ring,
    store_ring,
)
from repro.utils.varint import decode_uvarint

RESHARD_LOG = "reshard.log"
RING_FILENAME = "ring.json"
STAGING_DIRNAME = "shards.next"
RETIRED_DIRNAME = "shards.old"

_REGISTRY = obs_metrics.get_registry()
_MIGRATION_PROGRESS = _REGISTRY.gauge(
    "ted_shard_migration_progress",
    "Reshard progress, 0.0 (begun) to 1.0 (complete)",
    labelnames=("side",),
)
_MIGRATED_KEYS = _REGISTRY.counter(
    "ted_shard_migrated_keys_total",
    "Keys moved to a new owning shard by reshard",
    labelnames=("side",),
)


class ReshardError(RuntimeError):
    """A migration cannot proceed (bad plan, conflicting in-progress run)."""


# -- reshard log --------------------------------------------------------------


def _read_log(path: Path) -> Tuple[Set[str], Optional[Dict]]:
    """Completed phase names plus the recorded plan, if any."""
    phases: Set[str] = set()
    plan: Optional[Dict] = None
    if not path.exists():
        return phases, plan
    for op, key, value in WriteAheadLog.replay(path):
        if op != OP_PUT or key != b"phase":
            continue
        record = json.loads(value.decode("utf-8"))
        phases.add(record["phase"])
        if record["phase"] == "begin":
            plan = record
    return phases, plan


def pending_reshard(root) -> bool:
    """True when ``root`` has a begun-but-unfinished migration.

    Servers call this at startup and refuse to serve until the operator
    re-runs ``repro reshard`` to completion.
    """
    phases, _ = _read_log(Path(root) / RESHARD_LOG)
    return bool(phases) and "done" not in phases


class _PhaseLog:
    """The migration's phase WAL: append-once records, synced each."""

    def __init__(self, root: Path, side: str) -> None:
        self.path = root / RESHARD_LOG
        self.side = side
        self.phases, self.plan = _read_log(self.path)
        self._wal = WriteAheadLog(self.path, scope=f"reshard.{side}.log")

    def record(self, phase: str, **extra) -> None:
        if phase in self.phases:
            return
        payload = dict(extra)
        payload["phase"] = phase
        self._wal.append(
            OP_PUT, b"phase", json.dumps(payload, sort_keys=True).encode()
        )
        self._wal.sync()
        self.phases.add(phase)

    def finish(self) -> None:
        self.record("done")
        self._wal.truncate()
        self._wal.close()

    def close(self) -> None:
        self._wal.close()


def _resolve_plan(
    log: _PhaseLog,
    old_ring: Optional[HashRing],
    shards: int,
    ring_seed: Optional[int],
    vnodes: Optional[int],
) -> Tuple[Optional[HashRing], HashRing]:
    """The (old, new) rings this run migrates between.

    An in-progress log pins the plan: resuming with a different target
    is refused rather than silently blended.
    """
    if log.plan is not None:
        planned_old = (
            HashRing.from_dict(log.plan["old"])
            if log.plan.get("old")
            else None
        )
        planned_new = HashRing.from_dict(log.plan["new"])
        if len(planned_new) != shards:
            raise ReshardError(
                f"a reshard to {len(planned_new)} shards is already in "
                f"progress; re-run with --shards {len(planned_new)} to "
                "complete it"
            )
        return planned_old, planned_new
    if shards < 1:
        raise ReshardError("shard count must be at least 1")
    if old_ring is None:
        new_ring = HashRing(
            range(shards),
            vnodes=vnodes if vnodes is not None else DEFAULT_VNODES,
            seed=ring_seed if ring_seed is not None else 0,
            epoch=1,
        )
        return None, new_ring
    if ring_seed is not None and ring_seed != old_ring.seed:
        raise ReshardError(
            f"ring seed is fixed at {old_ring.seed} after creation"
        )
    if vnodes is not None and vnodes != old_ring.vnodes:
        raise ReshardError(
            f"vnodes is fixed at {old_ring.vnodes} after creation"
        )
    if shards == len(old_ring):
        raise ReshardError(f"already at {shards} shards")
    new_ring = HashRing(
        range(shards),
        vnodes=old_ring.vnodes,
        seed=old_ring.seed,
        epoch=old_ring.epoch + 1,
    )
    return old_ring, new_ring


# -- provider ----------------------------------------------------------------


def _engine_data_roots(root: Path) -> List[Path]:
    """Root + tenant directories that hold dedup-engine state.

    With cross-user dedup off, each tenant has a private engine under
    ``tenants/<id>/`` that migrates the same way; recipe-only tenant
    dirs (cross-user dedup on) are skipped.
    """
    candidates = [root]
    tenants = root / "tenants"
    if tenants.is_dir():
        candidates.extend(sorted(p for p in tenants.iterdir() if p.is_dir()))
    return [
        p
        for p in candidates
        if any(
            (p / name).is_dir()
            for name in ("containers", "index", SHARDS_DIRNAME)
        )
    ]


def _provider_sources(
    data_root: Path, old_ring: Optional[HashRing]
) -> List[Tuple[Optional[int], Path]]:
    if old_ring is None:
        return [(None, data_root)]
    return [
        (shard, data_root / SHARDS_DIRNAME / str(shard))
        for shard in old_ring.shards
        if (data_root / SHARDS_DIRNAME / str(shard)).is_dir()
    ]


def _provider_sweep(
    data_root: Path,
    old_ring: Optional[HashRing],
    new_ring: HashRing,
    container_bytes: int,
) -> int:
    """One idempotent copy pass; returns chunks newly copied."""
    engines: Dict[Path, DedupEngine] = {}

    def engine_at(path: Path) -> DedupEngine:
        if path not in engines:
            engines[path] = DedupEngine(
                path, container_bytes=container_bytes
            )
        return engines[path]

    for shard in new_ring.shards:
        engine_at(data_root / SHARDS_DIRNAME / str(shard))
    moved = 0
    for src_shard, src_path in _provider_sources(data_root, old_ring):
        source = engine_at(src_path)
        for fingerprint in sorted(
            fp for fp, _ in source.index.items()
        ):
            dest_shard = new_ring.shard_for_key(fingerprint)
            if dest_shard == src_shard:
                continue
            dest = engine_at(data_root / SHARDS_DIRNAME / str(dest_shard))
            if not dest.contains(fingerprint):
                crash.crash_point("reshard.provider.copy")
                dest.store(fingerprint, source.load(fingerprint))
                moved += 1
                _MIGRATED_KEYS.labels(side="provider").inc()
    for engine in engines.values():
        engine.flush()
        engine.close()
    return moved


def _provider_gc(
    data_root: Path,
    old_ring: Optional[HashRing],
    new_ring: HashRing,
    container_bytes: int,
) -> None:
    for src_shard, src_path in _provider_sources(data_root, old_ring):
        crash.crash_point("reshard.provider.gc")
        if src_shard is None:
            # Legacy single-engine layout: everything moved into
            # shards/<k>; drop the root engine's containers and index.
            for name in ("containers", "index"):
                target = data_root / name
                if target.is_dir():
                    shutil.rmtree(target)
            continue
        if src_shard not in new_ring.shards:
            shutil.rmtree(src_path)
            continue
        engine = DedupEngine(src_path, container_bytes=container_bytes)
        for fingerprint in sorted(fp for fp, _ in engine.index.items()):
            if new_ring.shard_for_key(fingerprint) != src_shard:
                engine.index.delete(fingerprint)
        engine.flush()
        engine.close()


def reshard_provider(
    root,
    shards: int,
    ring_seed: Optional[int] = None,
    vnodes: Optional[int] = None,
    container_bytes: int = 8 << 20,
) -> Dict[str, object]:
    """Migrate a (stopped) provider storage root to ``shards`` shards."""
    root = Path(root)
    if not root.is_dir():
        raise ReshardError(f"no provider storage at {root}")
    log = _PhaseLog(root, "provider")
    try:
        ring_path = root / RING_FILENAME
        disk_ring = load_ring(ring_path) if ring_path.exists() else None
        old_ring, new_ring = _resolve_plan(
            log, disk_ring, shards, ring_seed, vnodes
        )
        gauge = _MIGRATION_PROGRESS.labels(side="provider")
        log.record(
            "begin",
            old=old_ring.to_dict() if old_ring else None,
            new=new_ring.to_dict(),
        )
        gauge.set(0.0)
        data_roots = _engine_data_roots(root)

        if "snapshot" not in log.phases:
            for data_root in data_roots:
                for _, src_path in _provider_sources(data_root, old_ring):
                    engine = DedupEngine(
                        src_path, container_bytes=container_bytes
                    )
                    engine.flush()
                    engine.close()
            crash.crash_point("reshard.provider.snapshot")
            log.record("snapshot")
        gauge.set(0.2)

        moved = 0
        if "copied" not in log.phases:
            for data_root in data_roots:
                moved += _provider_sweep(
                    data_root, old_ring, new_ring, container_bytes
                )
            log.record("copied")
        gauge.set(0.6)

        if "drained" not in log.phases:
            for data_root in data_roots:
                _provider_sweep(
                    data_root, old_ring, new_ring, container_bytes
                )
            crash.crash_point("reshard.provider.drain")
            log.record("drained")
        gauge.set(0.7)

        if "cutover" not in log.phases:
            crash.crash_point("reshard.provider.cutover")
            store_ring(ring_path, new_ring)
            log.record("cutover")
        gauge.set(0.8)

        if "gc" not in log.phases:
            for data_root in data_roots:
                _provider_gc(
                    data_root, old_ring, new_ring, container_bytes
                )
            log.record("gc")
        gauge.set(1.0)
        log.finish()
        return {
            "side": "provider",
            "root": str(root),
            "shards": list(new_ring.shards),
            "epoch": new_ring.epoch,
            "moved_chunks": moved,
        }
    finally:
        log.close()


# -- key manager -------------------------------------------------------------


def _peek_geometry(snapshot_path: Path) -> Optional[Tuple[int, int]]:
    """(rows, width) from an intact snapshot header, else None."""
    if not snapshot_path.exists():
        return None
    blob = snapshot_path.read_bytes()
    if not KeyManagerStateStore._snapshot_intact(blob):
        return None
    payload = blob[km_state_mod._PREFIX :]
    rows, pos = decode_uvarint(payload, 0)
    width, _ = decode_uvarint(payload, pos)
    return rows, width


def _migration_observer(
    rows: int, width: int, conservative: bool
) -> TedKeyManager:
    """A state-shaped key manager for loading shard state during reshard.

    FTED-shaped (``blowup_factor`` set, ``batch_size=None``) so delta
    replay tracks frequency-map entries; for BTED/MLE deployments the
    extra tracked entries are inert — nothing reads the map — and cost
    a few bytes in the staged snapshots.
    """
    return TedKeyManager(
        secret=b"reshard",
        blowup_factor=1.05,
        batch_size=None,
        sketch_rows=rows,
        sketch_width=width,
        probabilistic=False,
        conservative_sketch=conservative,
    )


def _km_sources(
    state_root: Path, old_ring: Optional[HashRing]
) -> List[Tuple[Optional[int], Path]]:
    if old_ring is None:
        return [(None, state_root)]
    return [
        (shard, state_root / SHARDS_DIRNAME / str(shard))
        for shard in old_ring.shards
        if (state_root / SHARDS_DIRNAME / str(shard)).is_dir()
    ]


def reshard_km(
    state_root,
    shards: int,
    ring_seed: Optional[int] = None,
    vnodes: Optional[int] = None,
    conservative_sketch: bool = False,
    snapshot_every: int = 64,
    sync_every: int = 1,
) -> Dict[str, object]:
    """Migrate a (stopped) KM state root to ``shards`` shards.

    Sources may be a sharded layout (``shards/<k>/``) or a legacy
    single-KM ``--state-dir`` (snapshot + delta at the root); the
    result is always the sharded layout plus ``ring.json``.
    """
    state_root = Path(state_root)
    if not state_root.is_dir():
        raise ReshardError(f"no KM state at {state_root}")
    log = _PhaseLog(state_root, "km")
    try:
        ring_path = state_root / RING_FILENAME
        disk_ring = load_ring(ring_path) if ring_path.exists() else None
        old_ring, new_ring = _resolve_plan(
            log, disk_ring, shards, ring_seed, vnodes
        )
        sources = _km_sources(state_root, old_ring)

        # Geometry (sketch rows × width) is only recorded in snapshot
        # headers, not in delta records. Delta-only state — a KM that
        # died before its first snapshot cadence or clean stop — cannot
        # be folded, and staging empty shards over it would silently
        # drop acked batches. Refuse before the phase log records
        # anything, so nothing blocks a later serve/reshard.
        geometry = None
        for _, src_path in sources:
            peeked = _peek_geometry(src_path / "snapshot.bin")
            if peeked is not None:
                geometry = peeked
                break
        if geometry is None:
            dirty = [
                src_path
                for _, src_path in sources
                if (src_path / "delta.log").exists()
                and (src_path / "delta.log").stat().st_size > 0
            ]
            if dirty:
                raise ReshardError(
                    f"KM state at {dirty[0]} has delta-log records but "
                    "no intact snapshot (unclean shutdown?); start and "
                    "cleanly stop the key manager to fold the log, "
                    "then re-run reshard"
                )
        gauge = _MIGRATION_PROGRESS.labels(side="km")
        log.record(
            "begin",
            old=old_ring.to_dict() if old_ring else None,
            new=new_ring.to_dict(),
        )
        gauge.set(0.0)
        loaded: Dict[Optional[int], TedKeyManager] = {}
        if geometry is not None:
            rows, width = geometry
            for src_shard, src_path in sources:
                observer = _migration_observer(
                    rows, width, conservative_sketch
                )
                store = KeyManagerStateStore(src_path)
                store.restore_into(observer)
                loaded[src_shard] = observer
                if "snapshot" not in log.phases:
                    crash.crash_point("reshard.km.snapshot")
                    store.snapshot(observer)
                store.close()
        log.record("snapshot")
        gauge.set(0.3)

        if "drained" not in log.phases:
            crash.crash_point("reshard.km.drain")
            log.record("drained")
        gauge.set(0.4)

        staging = state_root / STAGING_DIRNAME
        if "staged" not in log.phases:
            if staging.exists():
                shutil.rmtree(staging)  # torn previous attempt
            if loaded:
                staged = _stage_km_shards(
                    old_ring, new_ring, loaded, conservative_sketch
                )
                for new_shard, observer in staged.items():
                    crash.crash_point("reshard.km.stage")
                    store = KeyManagerStateStore(
                        staging / str(new_shard),
                        snapshot_every=snapshot_every,
                        sync_every=sync_every,
                    )
                    store.snapshot(observer)
                    store.close()
            else:
                staging.mkdir(parents=True, exist_ok=True)
            log.record("staged")
        gauge.set(0.7)

        if "cutover" not in log.phases:
            crash.crash_point("reshard.km.cutover")
            store_ring(ring_path, new_ring)
            log.record("cutover")
        gauge.set(0.8)

        if "gc" not in log.phases:
            crash.crash_point("reshard.km.gc")
            shards_dir = state_root / SHARDS_DIRNAME
            retired = state_root / RETIRED_DIRNAME
            if staging.exists():
                if shards_dir.exists():
                    if retired.exists():
                        shutil.rmtree(retired)
                    shards_dir.rename(retired)
                staging.rename(shards_dir)
            if retired.exists():
                shutil.rmtree(retired)
            if old_ring is None:
                # Legacy single-KM layout: its folded state now lives
                # in the shards; drop the root-level store files.
                for name in ("snapshot.bin", "delta.log"):
                    target = state_root / name
                    if target.exists():
                        target.unlink()
            log.record("gc")
        gauge.set(1.0)
        log.finish()
        return {
            "side": "km",
            "root": str(state_root),
            "shards": list(new_ring.shards),
            "epoch": new_ring.epoch,
            "sources": len(sources),
        }
    finally:
        log.close()


def _stage_km_shards(
    old_ring: Optional[HashRing],
    new_ring: HashRing,
    loaded: Dict[Optional[int], TedKeyManager],
    conservative_sketch: bool,
) -> Dict[int, TedKeyManager]:
    """Every new shard's state as a pure function of the folded sources.

    Determinism is the crash-safety argument: staging always produces
    the same bytes from the same sources, so a kill anywhere before
    cutover re-runs staging from scratch and converges. Sketch merging
    sums counters elementwise (:meth:`CountMinSketch.merge`-style), so
    estimates stay upper bounds; frequency-map entries move exactly —
    each identity to its one new owner; request totals are conserved
    (sum over shards is the front's global request counter after
    restart) by crediting orphaned counts to the lowest new shard.
    """
    any_source = next(iter(loaded.values()))
    rows, width = any_source.sketch.rows, any_source.sketch.width
    t = max(source.t for source in loaded.values())
    old_ids = set(loaded)
    staged: Dict[int, TedKeyManager] = {}
    lowest = min(new_ring.shards)
    for new_shard in new_ring.shards:
        observer = _migration_observer(rows, width, conservative_sketch)
        observer.t = t
        base = loaded.get(new_shard) if old_ring is not None else None
        if base is not None:
            observer.sketch._counters = base.sketch._counters.copy()
            observer.sketch.total = base.sketch.total
            observer.stats.requests = base.stats.requests
        staged[new_shard] = observer
    if old_ring is None:
        # Legacy bootstrap: every new shard inherits the single sketch
        # (a safe upper bound for whatever identities it now owns); the
        # request total stays on one shard so the sum is conserved.
        source = loaded[None]
        for new_shard, observer in staged.items():
            observer.sketch._counters = source.sketch._counters.copy()
            observer.sketch.total = source.sketch.total
        staged[lowest].stats.requests = source.stats.requests
    else:
        added = [s for s in new_ring.shards if s not in old_ids]
        removed = [s for s in old_ids if s not in new_ring.shards]
        for new_shard in added:
            observer = staged[new_shard]
            for source in loaded.values():
                observer.sketch._counters += source.sketch._counters
                observer.sketch.total += source.sketch.total
        for gone in removed:
            source = loaded[gone]
            for new_shard in new_ring.shards:
                observer = staged[new_shard]
                observer.sketch._counters += source.sketch._counters
                observer.sketch.total += source.sketch.total
            staged[lowest].stats.requests += source.stats.requests
    # Frequency-map entries route exactly: one identity, one new owner.
    for source in loaded.values():
        for identity, frequency in source._freq_by_identity.items():
            owner = new_ring.shard_for_hashes(identity)
            staged[owner]._freq_by_identity[identity] = frequency
            _MIGRATED_KEYS.labels(side="km").inc()
    return staged


# -- orchestration ------------------------------------------------------------


def run_reshard(
    shards: int,
    storage=None,
    km_state=None,
    ring_seed: Optional[int] = None,
    vnodes: Optional[int] = None,
    container_bytes: int = 8 << 20,
) -> List[Dict[str, object]]:
    """CLI entry: reshard the provider root and/or the KM state root."""
    if storage is None and km_state is None:
        raise ReshardError("nothing to reshard: give --storage or --km-state")
    results = []
    if storage is not None:
        results.append(
            reshard_provider(
                storage,
                shards,
                ring_seed=ring_seed,
                vnodes=vnodes,
                container_bytes=container_bytes,
            )
        )
    if km_state is not None:
        results.append(
            reshard_km(
                km_state, shards, ring_seed=ring_seed, vnodes=vnodes
            )
        )
    return results


__all__ = [
    "RESHARD_LOG",
    "ReshardError",
    "pending_reshard",
    "reshard_km",
    "reshard_provider",
    "run_reshard",
]
