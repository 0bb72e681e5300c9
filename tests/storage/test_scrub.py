"""Scrub/fsck: detection, self-heal, quarantine, background passes."""

import hashlib
import sys
import threading
import time

import pytest

from repro.storage import scrub
from repro.storage.container import ContainerStore
from repro.storage.dedup import DedupEngine
from repro.storage.scrub import BackgroundScrubber, fsck, fsck_path
from repro.tedstore import messages as m
from repro.tedstore.provider import ProviderService


def _fill(engine, count=12, size=400):
    chunks = {}
    for i in range(count):
        chunk = bytes([i % 251]) * size
        fingerprint = hashlib.sha256(chunk).digest()
        engine.store(fingerprint, chunk)
        chunks[fingerprint] = chunk
    engine.flush()
    return chunks


def _flip_data_byte(directory, container_id, data_offset=0):
    """Corrupt one byte inside a container's data section (not the TOC)."""
    path = directory / "containers" / f"container-{container_id}.bin"
    blob = bytearray(path.read_bytes())
    blob[8 + data_offset] ^= 0xFF  # 8 = magic length
    path.write_bytes(bytes(blob))


class TestFsck:
    def test_clean_store_is_clean(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        report = fsck(engine)
        assert report.clean
        assert report.containers_checked > 0
        assert report.chunks_verified >= 12
        assert report.index_entries_checked == 12
        engine.close()

    def test_detects_exactly_one_bad_chunk(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        engine.close()
        _flip_data_byte(tmp_path, container_id=0)
        engine = DedupEngine(tmp_path, container_bytes=1024)
        report = fsck(engine)
        assert not report.clean
        assert len(report.bad_chunks) == 1
        assert report.bad_chunks[0].container_id == 0
        assert report.bad_chunks[0].offset == 0
        engine.close()

    def test_shallow_skips_chunk_crcs(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        engine.close()
        _flip_data_byte(tmp_path, container_id=0)
        engine = DedupEngine(tmp_path, container_bytes=1024)
        report = fsck(engine, deep=False)
        assert report.clean  # framing intact; rot is invisible shallow
        assert report.chunks_verified == 0
        engine.close()

    def test_repair_drops_unhealable_entry(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        chunks = _fill(engine)
        engine.close()
        _flip_data_byte(tmp_path, container_id=0)
        engine = DedupEngine(tmp_path, container_bytes=1024)
        report = fsck(engine, repair=True)
        assert report.dropped == 1 and report.healed == 0
        assert report.bad_chunks[0].dropped
        # The damaged chunk now fails loudly; every other chunk survives.
        bad_fp = bytes.fromhex(report.bad_chunks[0].fingerprint)
        with pytest.raises(KeyError):
            engine.load(bad_fp)
        for fingerprint, chunk in chunks.items():
            if fingerprint != bad_fp:
                assert engine.load(fingerprint) == chunk
        assert fsck(engine).clean
        engine.close()

    def test_repair_heals_from_redundant_copy(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        chunk = b"\xabhealme" * 60
        fingerprint = hashlib.sha256(chunk).digest()
        engine.store(fingerprint, chunk)
        engine.containers.seal()
        # Plant a redundant physical copy (GC copy-forward / pre-crash
        # duplicates produce these) in a second container.
        engine.containers.append(chunk, fingerprint)
        engine.flush()
        _flip_data_byte(tmp_path, container_id=0)
        report = fsck(engine, repair=True)
        assert report.healed == 1 and report.dropped == 0
        assert report.bad_chunks[0].healed
        assert engine.load(fingerprint) == chunk
        assert fsck(engine).clean
        engine.close()

    def test_repair_quarantines_structural_damage(self, tmp_path):
        # Damage a container while the engine is open — the case startup
        # recovery cannot have handled.
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        victim = engine.containers.container_ids()[0]
        path = tmp_path / "containers" / f"container-{victim}.bin"
        path.write_bytes(path.read_bytes()[:-4])  # torn trailer
        report = fsck(engine, repair=True)
        assert report.structural_errors == [victim]
        assert not path.exists()
        assert (
            tmp_path / "containers" / "quarantine" / path.name
        ).exists()
        # Entries into the quarantined container were dropped (no copy).
        assert report.dropped > 0
        assert fsck(engine).clean
        engine.close()

    def test_fsck_path_runs_recovery_first(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        engine.close()
        report = fsck_path(tmp_path)
        assert report.clean

    @pytest.mark.parametrize("leaf", ["", "shards/1"])
    def test_fsck_path_checks_private_tenant_engines(self, tmp_path, leaf):
        """A corrupt chunk in a private tenant engine dirties the verdict,
        at an unsharded root and inside a leaf of a sharded root."""
        root = tmp_path / leaf
        service = ProviderService(
            directory=root, cross_user_dedup=False, container_bytes=1024
        )
        for tenant in ("default", "alice"):
            service.handle_put_chunks(
                m.PutChunks(chunks=[
                    (hashlib.sha256(tenant.encode() + bytes([i])).digest(),
                     tenant.encode() * 100 + bytes([i]))
                    for i in range(6)
                ]),
                tenant=tenant,
            )
        service.close()
        assert fsck_path(tmp_path).clean
        _flip_data_byte(root / "tenants" / "alice", container_id=0)
        report = fsck_path(tmp_path)
        assert not report.clean
        assert len(report.bad_chunks) == 1
        assert report.index_entries_checked == 12


def _record(monkeypatch, method):
    """Record the argument of every call of a ContainerStore method."""
    calls = []
    real = getattr(ContainerStore, method)

    def recording(self, arg):
        calls.append(arg)
        return real(self, arg)

    monkeypatch.setattr(ContainerStore, method, recording)
    return calls


class TestFsckReads:
    """fsck reads each container whole at most once, and healing reads
    TOCs plus the matching candidate chunk only."""

    def test_deep_fsck_reads_each_container_once(self, tmp_path, monkeypatch):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        whole = _record(monkeypatch, "_container_image")
        report = fsck(engine)
        assert report.clean and report.chunks_verified == 12
        assert sorted(whole) == engine.containers.container_ids()
        engine.close()

    def test_shallow_fsck_reads_no_container_whole(
        self, tmp_path, monkeypatch
    ):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        whole = _record(monkeypatch, "_container_image")
        assert fsck(engine, deep=False).clean
        assert whole == []
        engine.close()

    def test_healing_reads_tocs_and_the_candidate_chunk(
        self, tmp_path, monkeypatch
    ):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        chunk = b"\xabhealme" * 60
        fingerprint = hashlib.sha256(chunk).digest()
        engine.store(fingerprint, chunk)
        engine.containers.seal()
        _fill(engine)  # containers without the fingerprint
        copy = engine.containers.append(chunk, fingerprint)
        engine.flush()
        _flip_data_byte(tmp_path, container_id=0)
        whole = _record(monkeypatch, "_container_image")
        reads = _record(monkeypatch, "read")
        report = fsck(engine, repair=True)
        assert report.healed == 1 and report.dropped == 0
        assert sorted(whole) == engine.containers.container_ids()
        assert reads == [copy]
        assert engine.load(fingerprint) == chunk
        engine.close()


class TestLiveFsck:
    def test_serving_store_is_clean_before_its_first_seal(self, tmp_path):
        """Entries into the open container's buffer are live, not
        dangling: a healthy store that has not sealed yet is clean."""
        service = ProviderService(directory=tmp_path, scrub_interval=3600)
        chunks = [bytes([i]) * 300 for i in range(50)]
        service.handle_put_chunks(
            m.PutChunks(
                chunks=[(hashlib.sha256(c).digest(), c) for c in chunks]
            )
        )
        report = service.scrubber.run_once()
        assert report.clean
        assert report.index_entries_checked == 50
        assert report.dangling_index_entries == 0
        service.close()

    def test_fsck_races_a_flushing_writer(self, tmp_path):
        """fsck takes the engine's locks: a writer flushing the memtable
        and sealing containers mid-pass neither crashes a pass nor
        makes a healthy store look damaged."""
        engine = DedupEngine(
            tmp_path,
            container_bytes=4096,
            kvstore_options={"memtable_bytes": 2048},
        )
        done = threading.Event()
        errors = []

        def writer():
            i = 0
            try:
                while not done.is_set():
                    chunk = i.to_bytes(4, "big") * 16
                    engine.store(hashlib.sha256(chunk).digest(), chunk)
                    i += 1
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=writer)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                try:
                    reports.append(fsck(engine, deep=False))
                except Exception as exc:
                    errors.append(exc)
        finally:
            done.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert errors == []
        assert reports and all(report.clean for report in reports)
        engine.close()


class TestBackgroundScrubber:
    def test_run_once_records_report(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        scrubber = BackgroundScrubber(engine, interval_seconds=3600)
        assert scrubber.last_report is None
        report = scrubber.run_once()
        assert report.clean and scrubber.passes == 1
        assert scrubber.last_report is report
        engine.close()

    def test_thread_lifecycle(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        scrubber = BackgroundScrubber(engine, interval_seconds=0.05)
        scrubber.start()
        scrubber.start()  # idempotent
        deadline = 100
        while scrubber.passes == 0 and deadline:
            deadline -= 1
            import time

            time.sleep(0.01)
        scrubber.stop()
        assert scrubber.passes >= 1
        assert scrubber.last_report is not None
        engine.close()

    def test_rejects_bad_interval(self, tmp_path):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        with pytest.raises(ValueError):
            BackgroundScrubber(engine, interval_seconds=0)
        engine.close()

    def test_a_raising_pass_does_not_end_scrubbing(
        self, tmp_path, monkeypatch, capsys
    ):
        engine = DedupEngine(tmp_path, container_bytes=1024)
        _fill(engine)
        real_fsck = scrub.fsck
        calls = []

        def flaky_fsck(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise KeyError("memtable swapped mid-scan")
            return real_fsck(*args, **kwargs)

        monkeypatch.setattr(scrub, "fsck", flaky_fsck)
        scrubber = BackgroundScrubber(engine, interval_seconds=0.01)
        scrubber.start()
        deadline = time.monotonic() + 10
        while scrubber.passes == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        scrubber.stop()
        assert scrubber.passes >= 1
        assert scrubber.last_report.clean
        assert "scrubber: pass failed" in capsys.readouterr().err
        engine.close()
