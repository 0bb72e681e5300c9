"""Reshard crash matrix: kill-and-recover at every migration barrier.

``repro reshard`` promises crash safety at every barrier of the
snapshot → copy → drain → cutover → GC plan (DESIGN.md §15): a process
death at any named crash point — including mid-write of the ring config
— must leave a store that (a) refuses to serve (``pending_reshard``
after the first durable record), and (b) converges to the *same*
logical end state as a never-crashed migration when the reshard is
re-run.

Logical state is what is compared, not container-file bytes: recovery
may re-pack or quarantine physical artifacts, but per-leaf
fingerprint→chunk content and recipe plaintexts, ring config, per-shard
sketch counters, requests, tracked frequencies, and client sequence
floors must all converge exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil

import pytest

from repro.core.ted import TedKeyManager
from repro.storage import crash
from repro.storage.crash import InjectedCrash
from repro.storage.dedup import DedupEngine
from repro.storage.kvstore import KVStore
from repro.storage.recipe import unseal
from repro.storage.scrub import fsck_path
from repro.storage.sharded import (
    holds_engine,
    shard_directories,
    store_directories,
)
from repro.tedstore.km_state import KeyManagerStateStore
from repro.tedstore.messages import KeyGenRequest
from repro.tedstore.reshard import (
    pending_reshard,
    reshard_km,
    reshard_provider,
)
from repro.tedstore.ring import HashRing
from repro.tedstore.sharding import ShardedKeyManager

from tests.harness.differential import (
    make_sharded_deployment,
    make_workload,
    run_workload,
)

PROVIDER_POINTS = [
    "reshard.provider.snapshot",
    "reshard.provider.copy",
    "reshard.provider.drain",
    "reshard.provider.cutover",
    "reshard.provider.gc",
]
KM_POINTS = [
    "reshard.km.snapshot",
    "reshard.km.drain",
    "reshard.km.stage",
    "reshard.km.cutover",
    "reshard.km.gc",
]
#: The ring-config publish is itself a write barrier sequence.
RING_POINTS = [
    "ring.config.write",
    "ring.config.before_fsync",
    "ring.config.before_rename",
    "ring.config.before_dirsync",
]

_WIDTH = 2**12
_ROWS = 4


@pytest.fixture(autouse=True)
def _reset_injector():
    crash.get_injector().reset()
    yield
    crash.get_injector().reset()


# -- provider side ------------------------------------------------------------


def _build_provider_template(root, shards: int) -> None:
    deployment = make_sharded_deployment(
        "bted", root, shards, client_batch_size=200
    )
    run_workload(
        deployment,
        make_workload(
            files=6, chunks_per_file=100, distinct_blocks=24, seed=3
        ),
    )
    for service in deployment.leaves:
        service.close()


def provider_logical_state(root) -> dict:
    """Placement + content state, independent of physical packing.

    Per store directory (each leaf, and each tenant inside it): the
    fingerprint→chunk digests of its engine and the recipe plaintexts
    of its recipe store — sealing draws a fresh nonce, so the sealed
    bytes are compared through what they seal.
    """
    from repro.tedstore.provider import _decode_recipes

    per_store: dict = {}
    for path in store_directories(root):
        state: dict = {}
        if holds_engine(path):
            engine = DedupEngine(path)
            state["chunks"] = {
                fingerprint.hex(): hashlib.sha256(
                    engine.load(fingerprint)
                ).hexdigest()
                for fingerprint, _ in engine.index.items()
            }
            engine.close()
        if (path / "recipes").is_dir():
            recipes = KVStore(path / "recipes")
            state["recipes"] = {
                name.decode(): [
                    hashlib.sha256(unseal(b"\x01" * 32, sealed)).hexdigest()
                    for sealed in _decode_recipes(blob)
                ]
                for name, blob in recipes.items()
            }
            recipes.close()
        per_store[path.relative_to(root).as_posix()] = state
    ring_path = root / "ring.json"
    ring = json.loads(ring_path.read_text()) if ring_path.exists() else None
    return {"stores": per_store, "ring": ring}


@pytest.fixture(scope="module")
def provider_world(tmp_path_factory):
    """Template store + the clean-migration result to converge on."""
    base = tmp_path_factory.mktemp("reshard-provider")
    template = base / "template"
    _build_provider_template(template, shards=2)
    clean = base / "clean"
    shutil.copytree(template, clean)
    reshard_provider(clean, 3)
    return template, provider_logical_state(clean)


@pytest.mark.parametrize("point", PROVIDER_POINTS + RING_POINTS)
@pytest.mark.parametrize("hits", [1, 2])
def test_provider_crash_converges(tmp_path, provider_world, point, hits):
    """Crash on the ``hits``-th traversal of ``point``, recover, converge.

    Every point must fire on its first traversal (hits=1); per-item
    points (copy, gc) also crash mid-loop (hits=2). A single-traversal
    point armed at hits=2 simply never fires — the migration then runs
    clean, which must *still* land on the clean-run state.
    """
    template, clean_state = provider_world
    root = tmp_path / "store"
    shutil.copytree(template, root)
    injector = crash.get_injector()
    injector.arm(point, hits=hits)
    try:
        reshard_provider(root, 3)
        crashed = False
    except InjectedCrash:
        crashed = True
    finally:
        injector.reset()
    if hits == 1:
        assert crashed, f"{point} never traversed"
    if crashed:
        # Re-run the migration after the "reboot"; it must converge.
        result = reshard_provider(root, 3)
        assert result["shards"] == [0, 1, 2]
    assert not pending_reshard(root)
    assert provider_logical_state(root) == clean_state
    assert fsck_path(root).clean


def test_provider_crash_blocks_serving(tmp_path, provider_world):
    """After a durable barrier record, startup refuses until reshard."""
    from repro.tedstore.fleet import LocalFleet
    from repro.tedstore.provider import ProviderService, ShardedStoreError

    template, _ = provider_world
    root = tmp_path / "store"
    shutil.copytree(template, root)
    injector = crash.get_injector()
    injector.arm("reshard.provider.cutover")
    with pytest.raises(InjectedCrash):
        reshard_provider(root, 3)
    injector.reset()
    assert pending_reshard(root)
    with pytest.raises(RuntimeError, match="unfinished reshard"):
        ProviderService(directory=root)
    with pytest.raises(RuntimeError, match="unfinished reshard"):
        LocalFleet(root)
    reshard_provider(root, 3)
    # A sharded root is served leaf by leaf, never as one provider.
    with pytest.raises(ShardedStoreError, match="serve-shard"):
        ProviderService(directory=root)
    fleet = LocalFleet(root)
    assert sorted(fleet.leaves) == [0, 1, 2]
    fleet.close()


def test_legacy_provider_crash_converges(tmp_path):
    """1 → 2 migration (no prior ring) recovers at every barrier too."""
    template = tmp_path / "template"
    _build_provider_template(template, shards=1)
    clean = tmp_path / "clean"
    shutil.copytree(template, clean)
    reshard_provider(clean, 2, ring_seed=5)
    clean_state = provider_logical_state(clean)
    injector = crash.get_injector()
    for point in PROVIDER_POINTS:
        root = tmp_path / point.replace(".", "-")
        shutil.copytree(template, root)
        injector.arm(point)
        try:
            with pytest.raises(InjectedCrash):
                reshard_provider(root, 2, ring_seed=5)
        finally:
            injector.reset()
        reshard_provider(root, 2, ring_seed=5)
        assert provider_logical_state(root) == clean_state, point
        assert fsck_path(root).clean, point


# -- key-manager side ---------------------------------------------------------


def _km_vectors(count: int, seed: int = 9) -> list:
    from repro.crypto.murmur3 import short_hashes

    rng = random.Random(seed)
    blocks = [rng.randbytes(64) for _ in range(24)]
    return [
        short_hashes(
            hashlib.sha256(blocks[rng.randrange(24)]).digest(),
            _ROWS,
            _WIDTH,
        )
        for _ in range(count)
    ]


def _build_km_template(root, shards: int) -> None:
    front = TedKeyManager(
        secret=b"harness",
        blowup_factor=1.05,
        batch_size=128,
        sketch_width=_WIDTH,
        rng=random.Random(7),
    )
    service = ShardedKeyManager(
        front, HashRing.build(shards, seed=5), state_root=root
    )
    vectors = _km_vectors(400)
    for start in range(0, len(vectors), 100):
        service.handle_keygen(
            KeyGenRequest(hash_vectors=vectors[start : start + 100]),
            client_id="crash-matrix",
            sequence=start // 100 + 1,
        )
    service.close()


def km_logical_state(root) -> dict:
    """Decoded per-shard durable KM state (not raw file bytes)."""
    per_shard: dict = {}
    for shard_id, path in shard_directories(root):
        observer = TedKeyManager(
            secret=b"probe",
            blowup_factor=1.05,
            batch_size=None,
            sketch_rows=_ROWS,
            sketch_width=_WIDTH,
            probabilistic=False,
        )
        store = KeyManagerStateStore(path)
        store.restore_into(observer)
        store.close()
        per_shard[str(shard_id)] = {
            "counters": hashlib.sha256(
                observer.sketch._counters.tobytes()
            ).hexdigest(),
            "total": observer.sketch.total,
            "t": observer.t,
            "requests": observer.stats.requests,
            "frequencies": hashlib.sha256(
                repr(sorted(observer._freq_by_identity.items())).encode()
            ).hexdigest(),
        }
    return {
        "shards": per_shard,
        "ring": json.loads((root / "ring.json").read_text()),
    }


@pytest.fixture(scope="module")
def km_world(tmp_path_factory):
    base = tmp_path_factory.mktemp("reshard-km")
    template = base / "template"
    _build_km_template(template, shards=2)
    clean = base / "clean"
    shutil.copytree(template, clean)
    reshard_km(clean, 3)
    return template, km_logical_state(clean)


@pytest.mark.parametrize("point", KM_POINTS + RING_POINTS)
@pytest.mark.parametrize("hits", [1, 2])
def test_km_crash_converges(tmp_path, km_world, point, hits):
    template, clean_state = km_world
    root = tmp_path / "km"
    shutil.copytree(template, root)
    injector = crash.get_injector()
    injector.arm(point, hits=hits)
    try:
        reshard_km(root, 3)
        crashed = False
    except InjectedCrash:
        crashed = True
    finally:
        injector.reset()
    if hits == 1:
        assert crashed, f"{point} never traversed"
    if crashed:
        result = reshard_km(root, 3)
        assert result["shards"] == [0, 1, 2]
    assert not pending_reshard(root)
    assert km_logical_state(root) == clean_state


def test_km_delta_only_state_refused(tmp_path):
    """Unsnapshotted (kill -9) KM state must refuse, not stage empty.

    Sketch geometry only lives in snapshot headers, so delta-only state
    cannot be folded — resharding it would silently drop acked batches.
    The refusal must also leave no pending phase log behind, so the
    operator can start/stop the KM to fold the log and then re-run.
    """
    from repro.tedstore.km_state import KeyManagerStateStore
    from repro.tedstore.reshard import ReshardError
    from repro.tedstore.ring import store_ring

    root = tmp_path / "km"
    root.mkdir()
    store_ring(root / "ring.json", HashRing.build(2, seed=5))
    km = TedKeyManager(
        secret=b"x", blowup_factor=1.05, batch_size=None, sketch_width=_WIDTH
    )
    vectors = _km_vectors(20)
    km.generate_seeds(vectors)
    for shard in ("0", "1"):
        store = KeyManagerStateStore(
            root / "shards" / shard, snapshot_every=10_000
        )
        store.log_batch("c1", 1, vectors, km)
        store.close()  # closes the handle; never snapshots
    with pytest.raises(ReshardError, match="no intact snapshot"):
        reshard_km(root, 3)
    assert not pending_reshard(root)
    # Fold the logs the way a clean serve stop would, then it works.
    for shard in ("0", "1"):
        observer = TedKeyManager(
            secret=b"x",
            blowup_factor=1.05,
            batch_size=None,
            sketch_width=_WIDTH,
            probabilistic=False,
        )
        store = KeyManagerStateStore(root / "shards" / shard)
        store.restore_into(observer)
        store.snapshot(observer)
        store.close()
    result = reshard_km(root, 3)
    assert result["shards"] == [0, 1, 2]
    state = km_logical_state(root)
    assert len(state["shards"]) == 3


def test_km_crash_blocks_serving(tmp_path, km_world):
    template, _ = km_world
    root = tmp_path / "km"
    shutil.copytree(template, root)
    injector = crash.get_injector()
    injector.arm("reshard.km.stage")
    with pytest.raises(InjectedCrash):
        reshard_km(root, 3)
    injector.reset()
    assert pending_reshard(root)
    front = TedKeyManager(
        secret=b"harness",
        blowup_factor=1.05,
        batch_size=128,
        sketch_width=_WIDTH,
    )
    with pytest.raises(RuntimeError, match="unfinished reshard"):
        ShardedKeyManager(front, state_root=root)
    reshard_km(root, 3)
    service = ShardedKeyManager(front, state_root=root)
    assert len(service.ring) == 3
    service.close()
