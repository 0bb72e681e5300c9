"""Unit tests for the upload path and the fingerprint cache.

Integration-level equivalence lives in
``tests/integration/test_pipeline_differential.py``; here the path's
local contracts are pinned down: ordering, accounting invariants, the
inline/threaded scheduling choice, error propagation, and the cache's
thread-safety under a barrier-synchronized race.
"""

import random
import threading

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import SHACTR
from repro.storage.dedup import FingerprintCache
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.pipeline import PipelinedUploader, stage_threads
from repro.tedstore.provider import ProviderService

_W = 2**14


def _client(**kwargs):
    service = KeyManagerService(
        TedKeyManager(
            secret=b"pipe-unit",
            blowup_factor=1.05,
            batch_size=500,
            sketch_width=_W,
            rng=random.Random(3),
        )
    )
    provider = ProviderService(in_memory=True)
    kwargs.setdefault("profile", SHACTR)
    kwargs.setdefault("sketch_width", _W)
    kwargs.setdefault("batch_size", 200)
    return TedStoreClient(
        LocalKeyManager(service), LocalProvider(provider), **kwargs
    )


def _chunks(count=600, distinct=30, seed=9):
    rng = random.Random(seed)
    blocks = [rng.randbytes(2000) for _ in range(distinct)]
    return [blocks[rng.randrange(distinct)] for _ in range(count)]


class TestOrderingAndAccounting:
    def test_chunk_order_is_preserved(self):
        """Workers finish out of order; the resequencer must not."""
        client = _client(workers=4, pipeline_depth=2)
        chunks = _chunks()
        client.upload_chunks("ordered", chunks)
        assert client.download("ordered") == b"".join(chunks)

    def test_accounting_invariant_holds(self):
        client = _client(workers=3)
        chunks = _chunks()
        result = client.upload_chunks("acct", chunks)
        assert result.chunk_count == len(chunks)
        assert result.logical_bytes == sum(len(c) for c in chunks)
        assert (
            result.stored_chunks + result.duplicate_chunks
            == result.chunk_count
        )

    def test_cache_hits_are_counted_and_consistent(self):
        cache = FingerprintCache(capacity=4096)
        client = _client(workers=3, fingerprint_cache=cache)
        chunks = _chunks()
        first = client.upload_chunks("first", chunks)
        second = client.upload_chunks("second", chunks)
        # The workload repeats blocks, so the second pass must resolve
        # chunks client-side — and every hit still counts as a duplicate.
        assert second.cache_hits > 0
        assert second.duplicate_chunks >= second.cache_hits
        assert (
            second.stored_chunks + second.duplicate_chunks
            == second.chunk_count
        )
        assert cache.hits == first.cache_hits + second.cache_hits
        assert client.download("second") == b"".join(chunks)

    def test_empty_upload_completes(self):
        client = _client(workers=3)
        result = client.upload_chunks("empty", [])
        assert result.chunk_count == 0
        assert result.stored_chunks == 0
        assert client.download("empty") == b""

    def test_single_chunk_upload(self):
        client = _client(workers=4, pipeline_depth=1)
        result = client.upload_chunks("one", [b"x" * 100])
        assert result.chunk_count == 1
        assert client.download("one") == b"x" * 100


def _pipeline_thread_names():
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("ted-pipeline")
    ]


@pytest.fixture
def started_threads(monkeypatch):
    """Names of every thread started while the test runs."""
    started = []
    original = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


class TestSchedulingAndValidation:
    def test_stage_threads_follow_workers_and_crypto_workers(self):
        assert not stage_threads(1, 0)
        assert stage_threads(2, 0)
        assert stage_threads(1, 1)

    @pytest.mark.parametrize("cache", [False, True])
    def test_one_worker_starts_no_thread(self, started_threads, cache):
        """workers=1, crypto_workers=0: both directions run in the
        caller's thread — cache or not — so no ``ted-pipeline-*`` thread
        is ever created."""
        client = _client(
            workers=1,
            fingerprint_cache=FingerprintCache(capacity=64) if cache else None,
        )
        chunks = _chunks()  # three keygen/PUT batches
        client.upload_chunks("inline", chunks)
        client.upload("inline-raw", b"".join(chunks))
        assert client.download("inline") == b"".join(chunks)
        assert client.download("inline-raw") == b"".join(chunks)
        assert started_threads == []

    def test_more_workers_start_stage_threads(self, started_threads):
        client = _client(workers=2)
        client.upload_chunks("threaded", _chunks())
        client.download("threaded")
        assert {
            "ted-pipeline-encrypt_0",
            "ted-pipeline-write_0",
            "ted-pipeline-decrypt_0",
        } <= set(started_threads)

    def test_workers_charge_the_client_timer(self):
        """Encrypt and decrypt run on executor threads; their time still
        lands on the client's one stage clock."""
        client = _client(workers=4)
        client.upload_chunks("timed", _chunks())
        client.download("timed")
        assert client.timer.total("encryption") > 0.0
        assert client.timer.total("decryption") > 0.0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            _client(workers=0)

    def test_invalid_pipeline_depth_rejected(self):
        with pytest.raises(ValueError):
            _client(workers=2, pipeline_depth=0)


class TestErrors:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_provider_error_reaches_caller_as_itself(self, workers):
        client = _client(workers=workers, batch_size=50)
        boom = RuntimeError("disk on fire")

        class _Exploding:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def put_chunks(self, request):
                self.calls += 1
                if self.calls >= 2:
                    raise boom
                return self._inner.put_chunks(request)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        client.provider = _Exploding(client.provider)
        with pytest.raises(RuntimeError) as excinfo:
            client.upload_chunks("explodes", _chunks())
        assert excinfo.value is boom

    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_chunk_is_keyerror_for_every_workers(self, workers):
        """``download()`` documents ``KeyError`` for a chunk the
        provider does not hold — whichever scheduler ran the fetch."""
        client = _client(workers=workers)
        chunks = _chunks(count=40)
        client.upload_chunks("holey", chunks)
        service = client.provider.service
        victim = next(iter(service.engine.chunks))
        del service.engine.chunks[victim]
        with pytest.raises(KeyError):
            client.download("holey")

    def test_uploader_is_single_use(self):
        client = _client(workers=2)
        uploader = PipelinedUploader(client)
        uploader.run("once", [b"a" * 10, b"b" * 10])
        assert uploader.chunk_count == 2

    def test_no_pipeline_threads_survive_an_upload(self):
        client = _client(workers=4)
        client.upload_chunks("clean", _chunks(count=200))
        assert _pipeline_thread_names() == []  # run() joins them all


class TestFingerprintCacheRace:
    def test_barrier_synchronized_readers_and_writers(self):
        """Hammer one cache from many threads released simultaneously by
        a barrier; the cache must stay internally consistent and never
        return a value that was not inserted for that exact key."""
        cache = FingerprintCache(capacity=256)
        threads = 8
        rounds = 60
        keys = [(b"fp-%03d" % i, b"seed-%03d" % (i % 7)) for i in range(64)]
        expected = {
            FingerprintCache.key(fp, seed): b"cfp|" + fp + b"|" + seed
            for fp, seed in keys
        }
        barrier = threading.Barrier(threads)
        errors = []

        def worker(worker_id: int) -> None:
            rng = random.Random(worker_id)
            try:
                for round_no in range(rounds):
                    barrier.wait()  # all threads hit the cache together
                    fp, seed = keys[rng.randrange(len(keys))]
                    if (worker_id + round_no) % 2:
                        cache.insert(
                            fp, seed, expected[FingerprintCache.key(fp, seed)]
                        )
                    else:
                        value = cache.lookup(fp, seed)
                        if value is not None:
                            assert (
                                value
                                == expected[FingerprintCache.key(fp, seed)]
                            )
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)
                barrier.abort()

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not errors, errors
        stats = cache.stats()
        assert stats["entries"] <= 256
        assert stats["hits"] + stats["misses"] > 0
        assert len(cache) == stats["entries"]

    def test_lru_eviction_under_pressure(self):
        cache = FingerprintCache(capacity=4)
        for i in range(10):
            cache.insert(b"fp-%d" % i, b"s", b"c-%d" % i)
        assert len(cache) == 4
        assert cache.stats()["evictions"] == 6
        # Oldest entries are gone, newest survive.
        assert cache.lookup(b"fp-0", b"s") is None
        assert cache.lookup(b"fp-9", b"s") == b"c-9"

    def test_seed_is_part_of_the_key(self):
        """Same plaintext under a different seed is a different ciphertext
        — the cache must never conflate them."""
        cache = FingerprintCache(capacity=16)
        cache.insert(b"fp", b"seed-a", b"cipher-a")
        assert cache.lookup(b"fp", b"seed-b") is None
        assert cache.lookup(b"fp", b"seed-a") == b"cipher-a"

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FingerprintCache(capacity=0)
