"""FingerprintCache ring-epoch invalidation and the shard fan-out meter.

The client fingerprint cache must drop placement knowledge whenever the
provider's ring epoch advances — the in-flight alias-suppression audit
(a cached "duplicate" verdict from a pre-reshard epoch must never
suppress an upload the fingerprint's new owning leaf has not seen).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.storage.dedup import FingerprintCache
from repro.storage.sharded import ShardFanout, shard_directories


def _chunks(count: int, prefix: bytes = b"block"):
    for i in range(count):
        chunk = prefix + str(i).encode() * 9
        yield hashlib.sha256(chunk).digest(), chunk


def test_shard_directories_layout(tmp_path):
    """Each leaf of a sharded root is a complete provider root."""
    from repro.tedstore.fleet import LocalFleet
    from repro.tedstore.messages import PutChunks
    from repro.tedstore.ring import HashRing

    fleet = LocalFleet(tmp_path, HashRing.build(3, seed=2))
    fleet.transport().put_chunks(PutChunks(chunks=list(_chunks(30))))
    fleet.close()
    pairs = shard_directories(tmp_path)
    assert [shard for shard, _ in pairs] == [0, 1, 2]
    for shard, path in pairs:
        assert (path / "containers").is_dir()
        assert (path / "index").is_dir()
        assert (path / "recipes").is_dir()
    assert shard_directories(tmp_path / "nope") == []


def test_route_meter_tracks_imbalance():
    meter = ShardFanout("test", [0, 1])
    meter.record(0, 30)
    meter.record(1, 10)
    assert meter.counts == {0: 30, 1: 10}


# -- fingerprint-cache epoch invalidation -------------------------------------


def test_epoch_advance_clears_cache():
    cache = FingerprintCache(capacity=16)
    cache.insert(b"fp1", b"seed", b"cipher1")
    cache.insert(b"fp2", b"seed", b"cipher2")
    assert cache.lookup(b"fp1", b"seed") == b"cipher1"
    invalidated = cache.advance_epoch(1)
    assert invalidated == 2
    assert len(cache) == 0
    # The LRU was cleared: a pre-epoch key misses.
    assert cache.lookup(b"fp1", b"seed") is None
    stats = cache.stats()
    assert stats["epoch"] == 1
    assert stats["epoch_invalidations"] == 2


def test_same_epoch_is_noop():
    cache = FingerprintCache(capacity=16)
    cache.insert(b"fp", b"seed", b"cipher")
    assert cache.advance_epoch(0) == 0
    assert cache.lookup(b"fp", b"seed") == b"cipher"


def test_backwards_epoch_rejected():
    cache = FingerprintCache(capacity=16)
    cache.advance_epoch(3)
    with pytest.raises(ValueError, match="backwards"):
        cache.advance_epoch(2)


def test_epoch_skips_are_allowed():
    """Several reshards may happen while a client is offline."""
    cache = FingerprintCache(capacity=16)
    cache.insert(b"fp", b"seed", b"cipher")
    assert cache.advance_epoch(5) == 1
    assert cache.epoch == 5


def test_client_cache_invalidated_across_reshard(tmp_path):
    """End-to-end alias-suppression audit (cross-user dedup + reshard).

    A long-lived cached client uploads, the provider is resharded
    offline, the client reconnects and re-uploads: the pipelined path
    must consult the provider's new ring epoch, drop the stale cache,
    and the re-upload must land every fingerprint on exactly one shard
    (server-side dedup absorbs the re-PUTs; nothing is double-stored).
    """
    from repro.crypto.cipher import get_profile
    from repro.tedstore.client import TedStoreClient
    from repro.tedstore.fleet import LocalFleet
    from repro.tedstore.inprocess import LocalKeyManager
    from repro.tedstore.keymanager import KeyManagerService
    from repro.tedstore.reshard import reshard_provider
    from repro.tedstore.ring import HashRing
    from repro.core.ted import TedKeyManager

    def make_client(provider, cache):
        return TedStoreClient(
            LocalKeyManager(
                KeyManagerService(
                    TedKeyManager(
                        secret=b"s",
                        t=10**9,
                        probabilistic=False,
                        sketch_width=2**16,
                    )
                )
            ),
            provider,
            profile=get_profile("shactr"),
            sketch_width=2**16,
            batch_size=64,
            fingerprint_cache=cache,
        )

    cache = FingerprintCache(capacity=1024)
    chunks = [chunk for _, chunk in _chunks(40)]

    fleet = LocalFleet(tmp_path, HashRing.build(2))
    make_client(fleet.transport(), cache).upload_chunks("before", chunks)
    assert cache.epoch == 0 and len(cache) > 0
    fleet.close()

    reshard_provider(tmp_path, 3)

    fleet = LocalFleet(tmp_path)
    provider = fleet.transport()
    assert provider.ring_epoch() == 1
    result = make_client(provider, cache).upload_chunks("after", chunks)
    assert cache.epoch == 1
    assert cache.stats()["epoch_invalidations"] > 0
    # Stale entries could not short-circuit: everything was re-offered.
    assert result.cache_hits == 0
    assert result.duplicate_chunks == result.chunk_count
    # Routing invariant post-reshard: one owner per fingerprint.
    seen = set()
    for service in fleet.leaves.values():
        for fingerprint, _ in service.engine.index.items():
            assert fingerprint not in seen
            seen.add(fingerprint)
    fleet.close()


def test_backwards_epoch_error_is_typed_and_carries_context():
    """A stale peer must surface as RingEpochRegressionError — typed so
    fleet callers can tell "peer serves an old ring" from every other
    ValueError — while staying a ValueError for pre-§17 except blocks."""
    from repro.storage.dedup import RingEpochRegressionError

    cache = FingerprintCache(capacity=16)
    cache.advance_epoch(3)
    with pytest.raises(RingEpochRegressionError) as excinfo:
        cache.advance_epoch(1)
    assert excinfo.value.reported == 1
    assert excinfo.value.current == 3
    assert isinstance(excinfo.value, ValueError)


def test_backwards_epoch_leaves_the_cache_untouched():
    """The stale peer is wrong, not the cache: a regression must not
    invalidate entries cached under the (newer, authoritative) epoch."""
    from repro.storage.dedup import RingEpochRegressionError

    cache = FingerprintCache(capacity=16)
    cache.advance_epoch(3)
    cache.insert(b"fp", b"seed", b"cipher")
    with pytest.raises(RingEpochRegressionError):
        cache.advance_epoch(2)
    assert cache.epoch == 3
    assert len(cache) == 1
    assert cache.lookup(b"fp", b"seed") == b"cipher"
    assert cache.stats()["epoch_invalidations"] == 0


def test_forward_jump_under_concurrent_pipelined_uploads(tmp_path):
    """A reshard lands while pipelined uploads are in flight: the epoch
    advance must invalidate exactly once, post-jump uploads must rebuild
    the cache under the new epoch, and nothing may raise."""
    import threading

    from repro.core.ted import TedKeyManager
    from repro.crypto.cipher import SHACTR
    from repro.tedstore.client import TedStoreClient
    from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
    from repro.tedstore.keymanager import KeyManagerService
    from repro.tedstore.provider import ProviderService
    from repro.traces.workload import unique_file

    class EpochShiftingProvider:
        """LocalProvider plus a mutable advertised ring epoch."""

        def __init__(self, inner):
            self._inner = inner
            self.epoch = 0

        def ring_epoch(self):
            return self.epoch

        def __getattr__(self, name):
            return getattr(self._inner, name)

    service = ProviderService(in_memory=True)
    provider = EpochShiftingProvider(LocalProvider(service))
    km = LocalKeyManager(
        KeyManagerService(
            TedKeyManager(secret=b"epoch-secret", t=50, sketch_width=2**14)
        )
    )
    cache = FingerprintCache(capacity=1 << 10)
    client = TedStoreClient(
        km,
        provider,
        profile=SHACTR,
        sketch_width=2**14,
        batch_size=64,
        workers=2,  # pipelined path: that's where the epoch gate runs
        fingerprint_cache=cache,
    )
    barrier = threading.Barrier(3)
    errors = []

    def uploads(worker):
        try:
            barrier.wait(timeout=5.0)
            for i in range(4):
                client.upload(f"w{worker}-f{i}", unique_file(20_000))
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [
        threading.Thread(target=uploads, args=(w,)) for w in range(2)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=5.0)
    provider.epoch = 4  # reshard lands mid-run (forward jump, skips 1-3)
    for thread in threads:
        thread.join(timeout=30.0)
    assert errors == []
    assert cache.epoch == 4
    # Post-jump uploads repopulated the cache under the new epoch.
    assert len(cache) > 0
    service.close()
