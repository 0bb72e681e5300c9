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

provider (every leaf ``shards/<k>/`` is a complete provider root):
  1. *snapshot* — seal every engine's open container
     (``reshard.provider.snapshot``);
  2. *copy/delta drain* — copy each chunk and each recipe not yet on
     the leaf the new ring names into that leaf's store of the same
     tenant namespace (idempotent: dedup and equal recipes skip;
     ``reshard.provider.copy`` fires per copied entry), then a second
     verification sweep (``reshard.provider.drain``);
  3. *cutover* — atomically replace ``ring.json`` with the epoch+1
     ring (``reshard.provider.cutover`` plus the ``ring.config.*``
     torn-write points);
  4. *GC* — delete removed leaves and stores outside the leaves, and
     drop moved entries from the rest (``reshard.provider.gc``).
  An unsharded root and the in-process layout of earlier releases
  (recipes at the root, ``tenants/<id>/shards/<k>``) migrate the same way.

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
from repro.storage.kvstore import KVStore
from repro.storage.sharded import (
    RECIPES_DIRNAME,
    SHARDS_DIRNAME,
    TENANTS_DIRNAME,
    engine_roots,
    holds_engine,
    shard_directories,
    store_directories,
)
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.tedstore import km_state as km_state_mod
from repro.tedstore.km_state import KeyManagerStateStore
from repro.tedstore.ring import (
    DEFAULT_VNODES,
    HashRing,
    load_ring,
    recipe_key,
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


def refuse_pending_reshard(root) -> None:
    """Raise ``RuntimeError`` while ``root`` has an unfinished migration."""
    if pending_reshard(root):
        raise RuntimeError(
            f"unfinished reshard in {root}; run `repro reshard` to "
            "complete the migration before serving"
        )


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
    convert: bool = False,
) -> Tuple[Optional[HashRing], HashRing]:
    """The (old, new) rings this run migrates between.

    An in-progress log pins the plan: resuming with a different target
    is refused rather than silently blended. ``convert`` admits a plan
    at the current shard count (a store whose layout must change). The
    endpoints of shards that survive carry over to the new ring.
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
    if shards == len(old_ring) and not convert:
        raise ReshardError(f"already at {shards} shards")
    new_ring = HashRing(
        range(shards),
        vnodes=old_ring.vnodes,
        seed=old_ring.seed,
        epoch=old_ring.epoch + 1,
        endpoints={
            shard: endpoint
            for shard, endpoint in old_ring.endpoints.items()
            if shard < shards
        },
    )
    return old_ring, new_ring


def _summary(side: str, root: Path, ring: HashRing, **counts) -> Dict:
    """A migration's result; ``needs_endpoint`` lists the new ring's
    shards that no endpoint names yet (publish them before serving a
    fleet)."""
    return {
        "side": side,
        "root": str(root),
        "shards": list(ring.shards),
        "epoch": ring.epoch,
        "needs_endpoint": [
            shard for shard in ring.shards if ring.endpoint_for(shard) is None
        ],
        **counts,
    }


# -- provider ----------------------------------------------------------------


def _placement(root: Path, store: Path) -> Tuple[Optional[int], tuple]:
    """(owning shard, namespace) of one store directory under ``root``.

    The namespace is where the store sits inside a provider root: ``()``
    for the shared engine and default recipes, ``("tenants", id)`` for a
    tenant's. The owner is the shard the store sits under, or ``None``
    at an unsharded root. Leaves (``shards/<k>/tenants/<id>``), unsharded
    roots (``tenants/<id>``) and earlier in-process stores (recipes at
    the root, ``tenants/<id>/shards/<k>``) all parse this one way.
    """
    parts = store.relative_to(root).parts
    for at in range(len(parts) - 1):
        # A tenant may be called "shards"; a leaf is "shards/<digits>".
        if parts[at] == SHARDS_DIRNAME and parts[at + 1].isdigit():
            return int(parts[at + 1]), parts[:at] + parts[at + 2 :]
    return None, parts


def _home(root: Path, shard: int, namespace: Tuple[str, ...]) -> Path:
    """Where a namespace's store lives on leaf ``shard``."""
    return root.joinpath(SHARDS_DIRNAME, str(shard), *namespace)


def _is_home(root: Path, store: Path, ring: HashRing) -> bool:
    """True when ``store`` is a leaf store that ``ring`` keeps in place."""
    owner, namespace = _placement(root, store)
    return owner in ring.shards and store == _home(root, owner, namespace)


class _Opened(dict):
    """Engines and recipe stores, opened once per path, closed together."""

    def __init__(self, container_bytes: int) -> None:
        super().__init__()
        self.container_bytes = container_bytes

    def __call__(self, path: Path, kind: type):
        if (path, kind) not in self:
            self[path, kind] = (
                DedupEngine(path, container_bytes=self.container_bytes)
                if kind is DedupEngine
                else KVStore(path / RECIPES_DIRNAME)
            )
        return self[path, kind]

    def __enter__(self) -> "_Opened":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # Closing seals and flushes; a failed pass leaves the stores as
        # a killed process would, so a crash point simulates one.
        if exc_type is None:
            for store in self.values():
                store.close()


def _entries(root: Path, ring: HashRing, opened: _Opened):
    """``(store, source, key, home)`` for every chunk and recipe under root.

    ``source`` is the engine or recipe store opened at ``store``;
    ``home`` is the store of the same namespace on the leaf ``ring``
    places the entry on — by cipher fingerprint for chunks, by
    :func:`~repro.tedstore.ring.recipe_key` for recipes, the placement
    the fleet client routes by.
    """
    for store in store_directories(root):
        _, namespace = _placement(root, store)
        if holds_engine(store):
            engine = opened(store, DedupEngine)
            for fingerprint in sorted(fp for fp, _ in engine.index.items()):
                shard = ring.shard_for_key(fingerprint)
                yield store, engine, fingerprint, _home(root, shard, namespace)
        if (store / RECIPES_DIRNAME).is_dir():
            recipes = opened(store, KVStore)
            for name, _ in list(recipes.items()):
                shard = ring.shard_for_key(recipe_key(name))
                yield store, recipes, name, _home(root, shard, namespace)


def _provider_sweep(
    root: Path, ring: HashRing, container_bytes: int
) -> Tuple[int, int]:
    """One idempotent copy pass; returns (chunks, recipes) newly copied.

    Every entry not yet in its home store is copied there; dedup and
    equal recipes make a repeated pass copy nothing.
    """
    chunks = recipes = 0
    for shard in ring.shards:
        _home(root, shard, ()).mkdir(parents=True, exist_ok=True)
    with _Opened(container_bytes) as opened:
        for store, source, key, home in _entries(root, ring, opened):
            if home == store:
                continue
            if isinstance(source, DedupEngine):
                dest = opened(home, DedupEngine)
                if dest.contains(key):
                    continue
                crash.crash_point("reshard.provider.copy")
                dest.store(key, source.load(key))
                chunks += 1
            else:
                dest, blob = opened(home, KVStore), source.get(key)
                if dest.get(key) == blob:
                    continue
                crash.crash_point("reshard.provider.copy")
                dest.put(key, blob)
                recipes += 1
            _MIGRATED_KEYS.labels(side="provider").inc()
    return chunks, recipes


def _provider_gc(root: Path, ring: HashRing, container_bytes: int) -> None:
    """Drop every copy the sweep made redundant.

    Stores outside the new ring's leaves were copied home whole and are
    deleted, as are removed leaves and the directories left empty; the
    stores that stay drop only the entries that moved away.
    """
    for store in store_directories(root):
        crash.crash_point("reshard.provider.gc")
        if not _is_home(root, store, ring):
            for name in ("containers", "index", RECIPES_DIRNAME):
                if (store / name).is_dir():
                    shutil.rmtree(store / name)
    for shard, path in shard_directories(root):
        if shard not in ring.shards:
            shutil.rmtree(path)
    _prune_empty(root / TENANTS_DIRNAME)
    with _Opened(container_bytes) as opened:
        for store, source, key, home in _entries(root, ring, opened):
            if home != store:
                if isinstance(source, DedupEngine):
                    source = source.index
                source.delete(key)


def _prune_empty(directory: Path) -> None:
    """Remove ``directory`` and its subdirectories that hold no files."""
    if not directory.is_dir():
        return
    for child in directory.iterdir():
        _prune_empty(child)
    if not any(directory.iterdir()):
        directory.rmdir()


def reshard_provider(
    root,
    shards: int,
    ring_seed: Optional[int] = None,
    vnodes: Optional[int] = None,
    container_bytes: int = 8 << 20,
) -> Dict[str, object]:
    """Migrate a (stopped) provider storage root to ``shards`` leaves.

    Sources are a sharded root (``ring.json`` + ``shards/<k>/`` leaves),
    an unsharded provider root, or an earlier release's in-process
    sharded store; the result is always a sharded root whose every leaf
    is a complete provider root. Converting an in-process store runs
    even at its current shard count.
    """
    root = Path(root)
    if not root.is_dir():
        raise ReshardError(f"no provider storage at {root}")
    log = _PhaseLog(root, "provider")
    try:
        ring_path = root / RING_FILENAME
        disk_ring = load_ring(ring_path) if ring_path.exists() else None
        convert = disk_ring is not None and not all(
            _is_home(root, store, disk_ring)
            for store in store_directories(root)
        )
        old_ring, new_ring = _resolve_plan(
            log, disk_ring, shards, ring_seed, vnodes, convert=convert
        )
        gauge = _MIGRATION_PROGRESS.labels(side="provider")
        log.record(
            "begin",
            old=old_ring.to_dict() if old_ring else None,
            new=new_ring.to_dict(),
        )
        gauge.set(0.0)

        if "snapshot" not in log.phases:
            for path in engine_roots(root):
                DedupEngine(path, container_bytes=container_bytes).close()
            crash.crash_point("reshard.provider.snapshot")
            log.record("snapshot")
        gauge.set(0.2)

        moved = (0, 0)
        if "copied" not in log.phases:
            moved = _provider_sweep(root, new_ring, container_bytes)
            log.record("copied")
        gauge.set(0.6)

        if "drained" not in log.phases:
            _provider_sweep(root, new_ring, container_bytes)
            crash.crash_point("reshard.provider.drain")
            log.record("drained")
        gauge.set(0.7)

        if "cutover" not in log.phases:
            crash.crash_point("reshard.provider.cutover")
            store_ring(ring_path, new_ring)
            log.record("cutover")
        gauge.set(0.8)

        if "gc" not in log.phases:
            _provider_gc(root, new_ring, container_bytes)
            log.record("gc")
        gauge.set(1.0)
        log.finish()
        return _summary("provider", root, new_ring, moved_chunks=moved[0],
                        moved_recipes=moved[1])
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
        return _summary("km", state_root, new_ring, sources=len(sources))
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
    seed: Optional[int] = None,
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
                ring_seed=seed,
                vnodes=vnodes,
                container_bytes=container_bytes,
            )
        )
    if km_state is not None:
        results.append(
            reshard_km(km_state, shards, ring_seed=seed, vnodes=vnodes)
        )
    return results


__all__ = [
    "RESHARD_LOG",
    "ReshardError",
    "pending_reshard",
    "refuse_pending_reshard",
    "reshard_km",
    "reshard_provider",
    "run_reshard",
]
