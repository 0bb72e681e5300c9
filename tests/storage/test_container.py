"""Container store: packing, sealing, reads, the open-file cache, the TOC
memo."""

import hashlib
import os
import random
import sys
import threading
import tracemalloc
import zlib

import pytest

from repro.storage import container as container_mod
from repro.storage.container import (
    _MAGIC,
    _TRAILER,
    ChunkLocation,
    ContainerIntegrityError,
    ContainerStore,
    TocEntry,
    _encode_toc,
)
from repro.storage.dedup import DedupEngine


def _image(data: bytes, toc: bytes, count: int) -> bytes:
    """A container image whose frame (magic, geometry, TOC CRC) is valid
    whatever the TOC bytes say."""
    trailer = _TRAILER.pack(
        len(data), len(toc), zlib.crc32(toc), count, _MAGIC
    )
    return _MAGIC + data + toc + trailer


def _entry_past_data_len() -> bytes:
    return _image(b"d" * 10, _encode_toc([TocEntry(b"fp", 4, 100, 0)]), 1)


def _truncated_entry() -> bytes:
    toc = _encode_toc([TocEntry(b"fp", 0, 10, zlib.crc32(b"d" * 10))])
    return _image(b"d" * 10, toc[:-2], 1)


@pytest.fixture
def decode_calls(monkeypatch):
    """Counts calls of the TOC decoder (the TOC check's costly part)."""
    calls = []
    real = container_mod._decode_toc

    def counting(blob, count):
        calls.append(count)
        return real(blob, count)

    monkeypatch.setattr(container_mod, "_decode_toc", counting)
    return calls


def _store(path, cache=2):
    return ContainerStore(path, container_bytes=256, cache_containers=cache)


@pytest.fixture
def store(tmp_path):
    store = _store(tmp_path)
    yield store
    store.close()


class TestChunkLocation:
    def test_roundtrip(self):
        loc = ChunkLocation(container_id=7, offset=123456, length=8192)
        assert ChunkLocation.from_bytes(loc.to_bytes()) == loc

    def test_fixed_width(self):
        assert len(ChunkLocation(0, 0, 0).to_bytes()) == 16

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ChunkLocation.from_bytes(b"\x00" * 15)


class TestAppendRead:
    def test_roundtrip_open_container(self, store):
        loc = store.append(b"chunk-data")
        assert store.read(loc) == b"chunk-data"

    def test_roundtrip_after_seal(self, store):
        loc = store.append(b"chunk-data")
        store.seal()
        assert store.read(loc) == b"chunk-data"

    def test_sealing_on_capacity(self, store):
        locations = [store.append(b"x" * 100) for _ in range(5)]
        # 256-byte containers hold two 100-byte chunks each.
        assert locations[0].container_id == locations[1].container_id
        assert locations[2].container_id == locations[0].container_id + 1
        assert store.container_count() >= 2

    def test_chunk_never_spans_containers(self, store):
        store.append(b"a" * 200)
        loc = store.append(b"b" * 200)
        assert loc.offset == 0  # forced into a fresh container

    def test_rejects_oversized_chunk(self, store):
        with pytest.raises(ValueError):
            store.append(b"x" * 257)

    def test_rejects_empty_chunk(self, store):
        with pytest.raises(ValueError):
            store.append(b"")

    def test_read_unknown_container(self, store):
        with pytest.raises(KeyError):
            store.read(ChunkLocation(99, 0, 4))

    def test_read_out_of_bounds(self, store):
        store.append(b"tiny")
        store.seal()
        with pytest.raises(ValueError):
            store.read(ChunkLocation(0, 0, 500))

    def test_seal_empty_returns_none(self, store):
        assert store.seal() is None


class TestAccounting:
    def test_physical_bytes(self, store):
        store.append(b"x" * 100)
        assert store.physical_bytes() == 100
        store.seal()
        store.append(b"y" * 50)
        assert store.physical_bytes() == 150

    def test_cache_hits_counted(self, store):
        loc = store.append(b"data")
        store.seal()
        store.read(loc)
        store.read(loc)
        assert store.stats["cache_hits"] >= 1
        assert store.stats["container_reads"] == 1

    def test_cache_eviction(self, store):
        locs = []
        for i in range(6):  # 3 sealed containers with cache size 2
            locs.append(store.append(bytes([i]) * 100))
        store.seal()
        for loc in locs:
            assert store.read(loc) is not None

    def test_reopen_continues_ids(self, tmp_path):
        store = ContainerStore(tmp_path, container_bytes=64)
        store.append(b"x" * 60)
        store.seal()
        reopened = ContainerStore(tmp_path, container_bytes=64)
        loc = reopened.append(b"y" * 10)
        assert loc.container_id == 1

    def test_invalid_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            ContainerStore(tmp_path, container_bytes=0)


def _seal_containers(store, count):
    """Fill ``count`` sealed 256-byte containers with two chunks each."""
    locs = [store.append(bytes([i]) * 100) for i in range(2 * count)]
    store.seal()
    return locs


class TestTocMemo:
    """A fetch frame-checks every time; it TOC-checks each distinct
    TOC+trailer byte string once per container id per process."""

    @pytest.mark.parametrize(
        "image,message",
        [
            (_entry_past_data_len, "exceeds data section"),
            (_truncated_entry, "malformed container TOC"),
        ],
    )
    def test_malformed_toc_raises_on_every_fetch(
        self, store, decode_calls, image, message
    ):
        (store.directory / "container-5.bin").write_bytes(image())
        for attempt in range(3):
            with pytest.raises(ContainerIntegrityError, match=message):
                store.read(ChunkLocation(5, 0, 4))
        assert len(decode_calls) == 3  # a failure is never remembered

    def test_replaced_image_is_checked_again(self, tmp_path, decode_calls):
        store = _store(tmp_path, cache=1)
        locs = _seal_containers(store, 2)
        assert store.read(locs[0]) == bytes([0]) * 100
        assert store.read(locs[2]) == bytes([2]) * 100  # evicts container 0
        assert decode_calls == []  # both TOCs were remembered at seal
        (tmp_path / "container-0.bin").write_bytes(_entry_past_data_len())
        with pytest.raises(ContainerIntegrityError, match="exceeds data"):
            store.read(locs[0])
        assert len(decode_calls) == 1

    def test_flipped_toc_byte_fails_the_frame_check(self, tmp_path):
        store = _store(tmp_path, cache=1)
        locs = _seal_containers(store, 2)
        store.read(locs[0])
        store.read(locs[2])  # evicts container 0
        path = tmp_path / "container-0.bin"
        blob = bytearray(path.read_bytes())
        blob[len(_MAGIC) + 200] ^= 0xFF  # first byte of the TOC
        path.write_bytes(bytes(blob))
        with pytest.raises(
            ContainerIntegrityError, match="TOC checksum failure"
        ):
            store.read(locs[0])

    def test_quarantine_clears_the_entry(self, store):
        _seal_containers(store, 1)
        assert 0 in store._toc_checked
        store.quarantine_container(0)
        assert 0 not in store._toc_checked

    def test_cold_restore_decodes_each_toc_at_most_once(
        self, tmp_path, decode_calls
    ):
        store = _store(tmp_path)
        locs = _seal_containers(store, 6)
        store.close()
        # Reopen (startup recovery checks every container) with a cache
        # far smaller than the store, then restore in a fragmented order.
        cold = _store(tmp_path, cache=2)
        order = locs[0::2] + locs[1::2]
        for _ in range(3):
            for loc in order:
                assert cold.read(loc) == bytes([locs.index(loc)]) * 100
        assert cold.stats["container_reads"] > 6  # containers re-fetched
        assert len(decode_calls) <= 6


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def pread_lengths(monkeypatch):
    """Lengths of every positioned read of a container file."""
    lengths = []
    real = container_mod._pread

    def counting(fh, length, offset):
        lengths.append(length)
        return real(fh, length, offset)

    monkeypatch.setattr(container_mod, "_pread", counting)
    return lengths


class TestOpenFileCache:
    """A sealed read is one pread through at most ``cache_containers``
    checked open files; nothing holds a container image."""

    def test_eviction_quarantine_and_close_release_fds(self, tmp_path):
        baseline = _open_fds()
        store = _store(tmp_path, cache=2)
        locs = _seal_containers(store, 6)
        idle = _open_fds()
        for _ in range(2):  # fragmented: 6 containers through 2 files
            for loc in locs[0::2] + locs[1::2]:
                assert store.read(loc) == bytes([locs.index(loc)]) * 100
                assert _open_fds() <= idle + 2
        assert store.stats["container_reads"] == 24
        assert store.stats["cache_hits"] == 0
        assert store.read(locs[10]) == bytes([10]) * 100  # the newest file
        assert _open_fds() == idle + 2
        store.quarantine_container(5)
        assert _open_fds() == idle + 1
        store.close()
        assert _open_fds() == baseline

    def test_sequential_reads_share_one_open(self, store):
        locs = _seal_containers(store, 1)
        for loc in locs:
            store.read(loc)
        assert store.stats["container_reads"] == 1
        assert store.stats["cache_hits"] == 1

    def test_a_read_preads_only_the_chunk(self, store, pread_lengths):
        locs = _seal_containers(store, 1)
        store.read(locs[0])  # fetch: magic, trailer, TOC, then the chunk
        del pread_lengths[:]
        assert store.read(locs[1]) == bytes([1]) * 100
        assert pread_lengths == [100]

    def test_recovery_and_toc_read_no_chunk_data(
        self, tmp_path, pread_lengths, monkeypatch
    ):
        store = _store(tmp_path)
        _seal_containers(store, 3)
        store.close()
        whole = []
        monkeypatch.setattr(
            ContainerStore, "_container_image", lambda *a: whole.append(a)
        )
        reopened = _store(tmp_path)
        frames = sum(
            (tmp_path / f"container-{i}.bin").stat().st_size
            - reopened.container_data_bytes(i)
            for i in range(3)
        )
        assert sum(pread_lengths) == frames
        assert reopened.recovery.quarantined == []
        del pread_lengths[:]
        assert [e.offset for e in reopened.toc(1)] == [0, 100]
        assert sum(pread_lengths) == frames // 3
        assert whole == []
        reopened.close()

    def test_evicted_replaced_image_is_checked_again(
        self, tmp_path, decode_calls
    ):
        store = _store(tmp_path, cache=1)
        locs = _seal_containers(store, 2)
        assert store.read(locs[0]) == bytes([0]) * 100
        assert store.read(locs[2]) == bytes([2]) * 100  # evicts container 0
        assert decode_calls == []
        replacement = tmp_path / "replacement.bin"
        replacement.write_bytes((tmp_path / "container-1.bin").read_bytes())
        os.replace(replacement, tmp_path / "container-0.bin")
        assert store.read(locs[0]) == bytes([2]) * 100  # a new open
        assert len(decode_calls) == 1  # different TOC bytes: checked again
        store.close()

    @pytest.mark.parametrize("keep", [4, 50, -4])
    def test_truncated_file_fails_typed_on_fetch(self, tmp_path, keep):
        store = _store(tmp_path)
        locs = _seal_containers(store, 1)
        path = tmp_path / "container-0.bin"
        path.write_bytes(path.read_bytes()[:keep])
        before = _open_fds()
        with pytest.raises(ContainerIntegrityError):
            store.read(locs[0])
        assert _open_fds() == before  # the failed fetch closed its file
        store.close()

    def test_file_truncated_after_fetch_fails_typed(self, tmp_path):
        store = _store(tmp_path)
        locs = _seal_containers(store, 1)
        assert store.read(locs[0]) == bytes([0]) * 100
        os.truncate(tmp_path / "container-0.bin", len(_MAGIC) + 150)
        assert store.read(locs[0]) == bytes([0]) * 100
        with pytest.raises(ContainerIntegrityError, match="short container"):
            store.read(locs[1])
        store.close()

    def test_rejects_an_empty_cache(self, tmp_path):
        with pytest.raises(ValueError):
            _store(tmp_path, cache=0)

    def test_cold_fragmented_load_many_retains_chunks_not_containers(
        self, tmp_path
    ):
        """16 sealed 256 KiB containers, one 4 KiB chunk in four from
        each, in container-interleaved order: what the batch leaves
        allocated is about the chunks it returns, not containers."""
        per_container, size = 64, 4096
        rng = random.Random(40)
        chunks = [rng.randbytes(size) for _ in range(16 * per_container)]
        fps = [hashlib.sha256(chunk).digest() for chunk in chunks]
        engine = DedupEngine(tmp_path, container_bytes=per_container * size)
        for fp, chunk in zip(fps, chunks):
            engine.store(fp, chunk)
        engine.close()
        engine = DedupEngine(tmp_path, container_bytes=per_container * size)
        assert engine.container_count() == 16
        order = [
            c * per_container + i
            for i in range(0, per_container, 4)
            for c in range(16)
        ]
        tracemalloc.start()
        try:
            got = engine.load_many([fps[i] for i in order])
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == [chunks[i] for i in order]
        wanted = len(order) * size  # 1 MiB of chunks
        assert retained < wanted + (256 << 10)  # < one container of slack
        engine.close()


class TestOpenContainerReads:
    def test_read_returns_appended_bytes_across_appends(self, store):
        first = store.append(b"first-chunk")
        assert store.read(first) == b"first-chunk"
        second = store.append(b"second")
        third = store.append(b"third-chunk!")
        for loc, want in (
            (first, b"first-chunk"),
            (second, b"second"),
            (third, b"third-chunk!"),
        ):
            got = store.read(loc)
            assert type(got) is bytes
            assert got == want
        assert third.container_id == store.open_container_id

    def test_open_read_out_of_bounds(self, store):
        store.append(b"tiny")
        with pytest.raises(ValueError):
            store.read(ChunkLocation(store.open_container_id, 2, 10))

    def test_load_container_of_open_id_is_a_snapshot(self, store):
        store.append(b"abc")
        snapshot = store.load_container(store.open_container_id)
        store.append(b"defg")
        assert type(snapshot) is bytes
        assert snapshot == b"abc"
        assert store.load_container(store.open_container_id) == b"abcdefg"

    def test_concurrent_load_many_racing_store(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=8192)
        chunks = [
            hashlib.sha256(i.to_bytes(4, "big")).digest() * (1 + i % 7)
            for i in range(600)
        ]
        fps = [hashlib.sha256(c).digest() for c in chunks]
        stored = []  # indices whose store() has returned
        reads = []
        errors = []
        done = threading.Event()

        def writer():
            try:
                for i, (fp, chunk) in enumerate(zip(fps, chunks)):
                    engine.store(fp, chunk)
                    stored.append(i)
            finally:
                done.set()

        def reader():
            # Re-read the newest chunks, most of them still in the open
            # container that the writer is appending to.
            try:
                while not done.is_set():
                    ids = stored[-20:]
                    got = engine.load_many([fps[i] for i in ids])
                    assert got == [chunks[i] for i in ids]
                    reads.append(len(ids))
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=f) for f in (writer, reader, reader)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(stored) == len(chunks) and sum(reads) > 0
        assert engine.containers.stats["containers_sealed"] >= 2
        assert engine.load_many(fps) == chunks
        engine.close()
