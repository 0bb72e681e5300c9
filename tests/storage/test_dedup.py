"""Dedup engine: inline deduplication, stats, persistence, locking."""

import hashlib
import sys
import threading
from collections import Counter

import pytest

from repro.storage.dedup import DedupEngine
from repro.tedstore.fleet import LocalFleet
from repro.tedstore.messages import GetChunks, PutChunks
from repro.tedstore.ring import HashRing


@pytest.fixture
def engine(tmp_path):
    e = DedupEngine(tmp_path, container_bytes=1024)
    yield e
    e.close()


class TestDedup:
    def test_first_store_is_new(self, engine):
        assert engine.store(b"fp1", b"chunk-1") is True

    def test_duplicate_not_stored(self, engine):
        engine.store(b"fp1", b"chunk-1")
        assert engine.store(b"fp1", b"chunk-1") is False
        assert engine.stats.unique_chunks == 1
        assert engine.stats.logical_chunks == 2

    def test_load(self, engine):
        engine.store(b"fp1", b"chunk-data")
        assert engine.load(b"fp1") == b"chunk-data"

    def test_load_unknown(self, engine):
        with pytest.raises(KeyError):
            engine.load(b"nope")

    def test_contains(self, engine):
        engine.store(b"fp1", b"c")
        assert engine.contains(b"fp1")
        assert not engine.contains(b"fp2")

    def test_byte_accounting(self, engine):
        engine.store(b"a", b"x" * 100)
        engine.store(b"a", b"x" * 100)
        engine.store(b"b", b"y" * 50)
        assert engine.stats.logical_bytes == 250
        assert engine.stats.unique_bytes == 150
        assert engine.stats.dedup_ratio == pytest.approx(250 / 150)
        assert engine.stats.storage_saving == pytest.approx(1 - 150 / 250)

    def test_dedup_ratio_empty(self, engine):
        assert engine.stats.dedup_ratio == 1.0
        assert engine.stats.storage_saving == 0.0

    def test_many_chunks_across_containers(self, engine):
        for i in range(50):
            engine.store(b"fp-%d" % i, bytes([i]) * 100)
        engine.flush()
        for i in range(50):
            assert engine.load(b"fp-%d" % i) == bytes([i]) * 100
        assert engine.containers.container_count() >= 4

    def test_persistence(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        engine.store(b"fp1", b"persist-me")
        engine.close()
        reopened = DedupEngine(tmp_path, container_bytes=1024)
        assert reopened.load(b"fp1") == b"persist-me"
        assert reopened.store(b"fp1", b"persist-me") is False
        reopened.close()

    def test_physical_bytes(self, engine):
        engine.store(b"fp", b"z" * 200)
        assert engine.physical_bytes() == 200


class TestBatchLoad:
    def test_load_many_plain(self, engine):
        for i in range(30):
            engine.store(b"fp-%d" % i, bytes([i]) * 50)
        engine.flush()
        fps = [b"fp-%d" % i for i in (5, 17, 5, 29)]
        assert engine.load_many(fps) == [engine.load(fp) for fp in fps]

    def test_load_many_unknown_fingerprint(self, engine):
        with pytest.raises(KeyError):
            engine.load_many([b"nope"])

    def test_locate(self, engine):
        engine.store(b"fp", b"payload")
        location = engine.locate(b"fp")
        assert engine.containers.read(location) == b"payload"
        with pytest.raises(KeyError):
            engine.locate(b"missing")


class TestConcurrentStores:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_racing_stores_keep_one_copy(self, tmp_path, shards):
        """8 threads store the same 64 fingerprints: the engine's stripes
        make each check-then-append atomic, so every chunk is stored
        exactly once (per leaf of a fleet, under the ring's routing)."""
        if shards == 1:
            engine = DedupEngine(tmp_path, container_bytes=1024)
            leaves = [engine]
            store, load_many = engine.store, engine.load_many
            close = engine.close
        else:
            fleet = LocalFleet(
                tmp_path, HashRing.build(shards), container_bytes=1024
            )
            leaves = [service.engine for service in fleet.leaves.values()]
            transport = fleet.transport()

            def store(fp, chunk):
                transport.put_chunks(PutChunks(chunks=[(fp, chunk)]))

            def load_many(fps):
                return transport.get_chunks(GetChunks(fingerprints=fps)).chunks

            close = fleet.close
        chunks = [bytes([i]) * (40 + i) for i in range(64)]
        fps = [hashlib.sha256(c).digest() for c in chunks]
        start = threading.Barrier(8)
        errors = []

        def worker():
            try:
                start.wait()
                for fp, chunk in zip(fps, chunks):
                    store(fp, chunk)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for leaf in leaves:
            leaf.flush()
        assert sum(leaf.stats.unique_chunks for leaf in leaves) == 64
        assert sum(leaf.stats.logical_chunks for leaf in leaves) == 8 * 64
        copies = Counter(
            entry.fingerprint
            for leaf in leaves
            for container_id in leaf.containers.container_ids()
            for entry in leaf.containers.toc(container_id)
        )
        assert copies == Counter(fps)
        assert load_many(fps) == chunks
        close()
