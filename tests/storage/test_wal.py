"""Write-ahead log: replay, torn tails, corruption."""

from pathlib import Path

import pytest

from repro.storage.wal import OP_DELETE, OP_PUT, WriteAheadLog


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.log"


class TestWal:
    def test_replay_roundtrip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"k1", b"v1")
        wal.append(OP_DELETE, b"k2")
        wal.append(OP_PUT, b"k3", b"v3")
        wal.close()
        records = list(WriteAheadLog.replay(wal_path))
        assert records == [
            (OP_PUT, b"k1", b"v1"),
            (OP_DELETE, b"k2", b""),
            (OP_PUT, b"k3", b"v3"),
        ]

    def test_replay_missing_file(self, wal_path):
        assert list(WriteAheadLog.replay(wal_path)) == []

    def test_replay_stops_at_torn_tail(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"good", b"record")
        wal.append(OP_PUT, b"torn", b"record")
        wal.close()
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-3])  # simulate a crash mid-write
        records = list(WriteAheadLog.replay(wal_path))
        assert records == [(OP_PUT, b"good", b"record")]

    def test_replay_stops_at_corrupt_crc(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"good", b"record")
        wal.append(OP_PUT, b"bad", b"record")
        wal.close()
        data = bytearray(wal_path.read_bytes())
        data[-1] ^= 0xFF
        wal_path.write_bytes(bytes(data))
        records = list(WriteAheadLog.replay(wal_path))
        assert records == [(OP_PUT, b"good", b"record")]

    def test_truncate(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"k", b"v")
        wal.truncate()
        wal.append(OP_PUT, b"k2", b"v2")
        wal.close()
        assert list(WriteAheadLog.replay(wal_path)) == [(OP_PUT, b"k2", b"v2")]

    def test_truncate_fsyncs_file_and_directory(self, wal_path, monkeypatch):
        """Regression: the close/reopen-"wb" sequence never fsynced, so a
        crash after a memtable flush could resurrect flushed records on
        replay and double-apply mutations."""
        import os as os_module

        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"flushed", b"v")
        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.storage.wal.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        wal.truncate()
        wal.close()
        assert len(synced) >= 2  # truncated file + its directory entry

    def test_replay_after_truncate_without_close(self, wal_path):
        """Crash-simulation replay: records persisted before a truncation
        must never reappear, even if the process dies right after."""
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"applied-by-flush", b"v1")
        wal.sync()
        wal.truncate()
        # "Crash" here: replay straight from disk, no close().
        assert list(WriteAheadLog.replay(wal_path)) == []
        wal.append(OP_PUT, b"post-flush", b"v2")
        wal.close()
        assert list(WriteAheadLog.replay(wal_path)) == [
            (OP_PUT, b"post-flush", b"v2")
        ]

    def test_replay_into_after_truncate_does_not_double_apply(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"k", b"v")
        wal.truncate()  # memtable flush persisted k=v elsewhere
        # Nothing is left to re-apply over the flushed state.
        assert list(WriteAheadLog.replay(wal_path)) == []

    def test_rejects_unknown_op(self, wal_path):
        wal = WriteAheadLog(wal_path)
        with pytest.raises(ValueError):
            wal.append(42, b"k")
        wal.close()

    def test_empty_key_and_value(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"", b"")
        wal.close()
        assert list(WriteAheadLog.replay(wal_path)) == [(OP_PUT, b"", b"")]

    def test_replay_into_callbacks(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"a", b"1")
        wal.append(OP_DELETE, b"a")
        wal.close()
        state = {}
        records = list(WriteAheadLog.replay(wal_path))
        for op, key, value in records:
            if op == OP_PUT:
                state[key] = value
            else:
                state.pop(key, None)
        assert len(records) == 2
        assert state == {}

    def test_sync_does_not_crash(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"k", b"v")
        wal.sync()
        wal.close()


class TestTornTailHardening:
    """Recovery must survive every artifact a crash can leave (§12)."""

    def test_every_prefix_truncation_yields_a_record_prefix(self, wal_path):
        wal = WriteAheadLog(wal_path)
        records = [(OP_PUT, b"key-%d" % i, b"value-%d" % i) for i in range(8)]
        for op, key, value in records:
            wal.append(op, key, value)
        wal.close()
        blob = wal_path.read_bytes()
        for cut in range(len(blob) + 1):
            wal_path.write_bytes(blob[:cut])
            replayed = list(WriteAheadLog.replay(wal_path))
            # Never raises, and always yields an exact record prefix.
            assert replayed == records[: len(replayed)]

    def test_zero_filled_tail_stops_replay(self, wal_path):
        # Filesystems can pre-allocate zeroed blocks; a zeroed header
        # decodes as a length-0 record whose CRC (0) matches the empty
        # payload, so it needs an explicit guard.
        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"k", b"v")
        wal.close()
        with open(wal_path, "ab") as fh:
            fh.write(b"\x00" * 64)
        assert list(WriteAheadLog.replay(wal_path)) == [(OP_PUT, b"k", b"v")]

    def test_crc_valid_garbage_payload_stops_replay(self, wal_path):
        import struct
        import zlib

        wal = WriteAheadLog(wal_path)
        wal.append(OP_PUT, b"k", b"v")
        wal.close()
        # A structurally-bogus payload with a *correct* CRC: op byte 7.
        payload = bytes([7]) + b"\xff" * 5
        with open(wal_path, "ab") as fh:
            fh.write(struct.pack("<II", zlib.crc32(payload), len(payload)))
            fh.write(payload)
        assert list(WriteAheadLog.replay(wal_path)) == [(OP_PUT, b"k", b"v")]

    def test_torn_append_crash_point(self, wal_path):
        from repro.storage import crash as crash_mod
        from repro.storage.crash import InjectedCrash

        wal = WriteAheadLog(wal_path, scope="test.wal")
        wal.append(OP_PUT, b"k1", b"v1")
        crash_mod.get_injector().arm("test.wal.append", torn_bytes=5)
        with pytest.raises(InjectedCrash):
            wal.append(OP_PUT, b"k2", b"v2")
        wal.close()
        assert list(WriteAheadLog.replay(wal_path)) == [(OP_PUT, b"k1", b"v1")]
