"""SSTables: lookups, tombstones, sparse index, corruption detection."""

import hashlib
import random
import struct
import zlib

import pytest

from repro.storage.kvstore import KVStore
from repro.storage.sstable import SSTable, write_sstable
from repro.utils.varint import decode_uvarint

_FOOTER = struct.Struct("<QQQI8s")


def _items(n, prefix=b"key"):
    return [
        (prefix + b"-%06d" % i, b"value-%d" % i) for i in range(n)
    ]


class TestWriteRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.sst"
        items = _items(100)
        write_sstable(path, items)
        table = SSTable(path)
        for key, value in items:
            assert table.get(key) == (True, value)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(50))
        table = SSTable(path)
        assert table.get(b"absent") == (False, None)
        assert table.get(b"key-999999") == (False, None)
        assert table.get(b"aaa") == (False, None)

    def test_tombstones_preserved(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, [(b"alive", b"v"), (b"dead", None)])
        table = SSTable(path)
        assert table.get(b"alive") == (True, b"v")
        assert table.get(b"dead") == (True, None)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, [])
        table = SSTable(path)
        assert table.get(b"anything") == (False, None)
        assert list(table) == []

    def test_iteration_in_key_order(self, tmp_path):
        path = tmp_path / "t.sst"
        items = _items(200)
        write_sstable(path, items)
        assert list(SSTable(path)) == items

    def test_rejects_unsorted_keys(self, tmp_path):
        with pytest.raises(ValueError):
            write_sstable(tmp_path / "t.sst", [(b"b", b"1"), (b"a", b"2")])

    def test_rejects_duplicate_keys(self, tmp_path):
        with pytest.raises(ValueError):
            write_sstable(tmp_path / "t.sst", [(b"a", b"1"), (b"a", b"2")])

    def test_sparse_index_every_interval(self, tmp_path):
        # Keys landing between index entries must still be found.
        path = tmp_path / "t.sst"
        items = _items(100)
        write_sstable(path, items, index_interval=7)
        table = SSTable(path)
        for key, value in items:
            assert table.get(key) == (True, value)

    def test_large_values(self, tmp_path):
        path = tmp_path / "t.sst"
        big = b"x" * 100_000
        write_sstable(path, [(b"big", big)])
        assert SSTable(path).get(b"big") == (True, big)

    def test_file_bytes(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(10))
        assert SSTable(path).file_bytes() == path.stat().st_size

    def test_len(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(37))
        assert len(SSTable(path)) == 37


def _with_filter_block(path, filter_block, declared_len=None):
    """Rewrite a table with ``filter_block`` spliced in as its filter.

    This is the layout of tables from builds that wrote a per-table
    filter; the CRC covers the new body, so only the declared length
    can be wrong (when ``declared_len`` says so).
    """
    raw = path.read_bytes()
    data_len, filter_len, index_len, _crc, magic = _FOOTER.unpack(
        raw[-_FOOTER.size :]
    )
    assert filter_len == 0
    body = raw[len(magic) : -_FOOTER.size]
    body = body[:data_len] + filter_block + body[data_len:]
    if declared_len is None:
        declared_len = len(filter_block)
    footer = _FOOTER.pack(
        data_len, declared_len, index_len, zlib.crc32(body), magic
    )
    path.write_bytes(magic + body + footer)


class TestFilterBlock:
    def test_written_tables_have_no_filter_block(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(50))
        _data_len, filter_len, *_ = _FOOTER.unpack(
            path.read_bytes()[-_FOOTER.size :]
        )
        assert filter_len == 0

    def test_nonzero_filter_block_is_skipped(self, tmp_path):
        path = tmp_path / "t.sst"
        items = _items(50) + [(b"zz-tombstone", None)]
        write_sstable(path, items)
        _with_filter_block(path, bytes(range(256)) * 3 + b"\x07")
        table = SSTable(path)
        assert list(table) == items
        for key, value in items:
            assert table.get(key) == (True, value)
        assert table.get(b"key-000010x") == (False, None)
        assert table.get(b"a") == (False, None)
        assert table.get(b"zzz") == (False, None)

    def test_filter_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(20))
        _with_filter_block(path, b"\xaa" * 16, declared_len=15)
        with pytest.raises(ValueError, match="length mismatch"):
            SSTable(path)

    def test_flipped_filter_byte_rejected(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(20))
        _with_filter_block(path, b"\xaa" * 16)
        raw = bytearray(path.read_bytes())
        data_len = _FOOTER.unpack(raw[-_FOOTER.size :])[0]
        raw[8 + data_len + 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            SSTable(path)


class TestCorruption:
    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sst"
        path.write_bytes(b"NOTASSTB" + b"\x00" * 100)
        with pytest.raises(ValueError):
            SSTable(path)

    def test_rejects_flipped_byte(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(20))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            SSTable(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, _items(20))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            SSTable(path)

    def test_rejects_tiny_file(self, tmp_path):
        path = tmp_path / "t.sst"
        path.write_bytes(b"x")
        with pytest.raises(ValueError):
            SSTable(path)


# -- decoded once: bytes, parity, malformed records ---------------------------


def _scan(path):
    """Reference lookup source: every data-block record, decoded from
    the documented layout one varint at a time."""
    raw = path.read_bytes()
    data_len = _FOOTER.unpack(raw[-_FOOTER.size :])[0]
    data = raw[8 : 8 + data_len]
    records = []
    pos = 0
    while pos < len(data):
        key_len, pos = decode_uvarint(data, pos)
        key = data[pos : pos + key_len]
        pos += key_len
        flag = data[pos]
        value_len, pos = decode_uvarint(data, pos + 1)
        value = data[pos : pos + value_len]
        pos += value_len
        records.append((key, None if flag == 1 else value))
    return records


def _rewrite_data_block(path, data):
    """Replace a table's data block, keeping its CRC valid."""
    raw = path.read_bytes()
    data_len, filter_len, index_len, _crc, magic = _FOOTER.unpack(
        raw[-_FOOTER.size :]
    )
    rest = raw[8 + data_len : -_FOOTER.size]
    body = data + rest
    footer = _FOOTER.pack(
        len(data), filter_len, index_len, zlib.crc32(body), magic
    )
    path.write_bytes(magic + body + footer)


class TestGoldenBytes:
    """Frozen from the writer before tables were decoded at open; the
    reader change must not move a written byte."""

    def test_small_table_bytes(self, tmp_path):
        path = tmp_path / "t.sst"
        items = [
            (b"a", b"1"),
            (b"abc", None),
            (b"b" * 20, bytes(range(130))),
            (b"c", b""),
            (b"d", b"xyz"),
        ]
        write_sstable(path, items, index_interval=2)
        assert path.read_bytes().hex() == (
            "524550524f5353540161000131036162630100146262626262626262626262"
            "626262626262626262008201000102030405060708090a0b0c0d0e0f101112"
            "131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f3031"
            "32333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50"
            "5152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f"
            "707172737475767778797a7b7c7d7e7f8081016300000164000378797a0161"
            "001462626262626262626262626262626262626262620b0164a901b0000000"
            "0000000000000000000000001d000000000000004d003399524550524f5353"
            "54"
        )
        assert list(SSTable(path)) == items

    def test_larger_table_digest(self, tmp_path):
        rng = random.Random(9)
        keys = sorted(
            {rng.randbytes(32) for _ in range(300)} | {b"\xff" * 200}
        )
        items = [
            (key, None if i % 7 == 0 else rng.randbytes(rng.randrange(1, 20)))
            for i, key in enumerate(keys)
        ]
        path = tmp_path / "b.sst"
        write_sstable(path, items)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "de5a83a4337e13fb631d3cdc263b25ec3e1524cf71becd555bf2022fad372179"
        )
        assert list(SSTable(path)) == items == _scan(path)


class TestLookupParity:
    def test_table_lookups_match_a_record_scan(self, tmp_path):
        rng = random.Random(21)
        sizes = (1, 8, 32, 140)
        keys = sorted({rng.randbytes(rng.choice(sizes)) for _ in range(500)})
        items = [
            (key, rng.randbytes(rng.randrange(300)))
            if rng.random() < 0.8
            else (key, None)
            for key in keys
        ]
        path = tmp_path / "t.sst"
        write_sstable(path, items, index_interval=5)
        table = SSTable(path)
        scanned = dict(_scan(path))
        probes = list(scanned) + [rng.randbytes(32) for _ in range(200)]
        probes += [b"", b"\x00", b"\xff" * 200]
        probes += [key + b"\x00" for key in keys[:50]]
        for key in probes:
            if key in scanned:
                assert table.get(key) == (True, scanned[key])
            else:
                assert table.get(key) == (False, None)
        assert len(table) == len(scanned)

    def test_store_lookups_and_accounting_across_tables(self, tmp_path):
        """Random, missing, tombstoned and shadowed keys over several
        tables: values match a dict model, and ``table_reads`` /
        ``table_misses`` match a newest-first scan of the table files."""
        rng = random.Random(5)
        store = KVStore(tmp_path, memtable_bytes=2048, compaction_trigger=100)
        model = {}
        universe = [rng.randbytes(32) for _ in range(300)]
        for _ in range(1500):
            key = rng.choice(universe)
            if rng.random() < 0.2:
                store.delete(key)
                model.pop(key, None)
            else:
                value = rng.randbytes(16)
                store.put(key, value)
                model[key] = value
        store.flush()
        assert store.table_count() >= 3
        tables = sorted(
            tmp_path.glob("table-*.sst"),
            key=lambda p: int(p.stem.split("-")[1]),
            reverse=True,
        )
        scans = [dict(_scan(path)) for path in tables]
        probes = universe + [rng.randbytes(32) for _ in range(100)]
        reads = misses = 0
        for key in probes:
            for scanned in scans:
                reads += 1
                if key in scanned:
                    break
                misses += 1
        before = dict(store.stats)
        for key in probes:
            assert store.get(key) == model.get(key)
        assert store.stats["table_reads"] - before["table_reads"] == reads
        assert store.stats["table_misses"] - before["table_misses"] == misses
        store.close()


def _valid_table(path):
    write_sstable(path, _items(30) + [(b"zz", None)])
    return _FOOTER.unpack(path.read_bytes()[-_FOOTER.size :])[0]


class TestMalformedRecords:
    """A CRC-valid table whose records do not parse fails with
    ``ValueError`` — never ``IndexError`` — so recovery quarantines it."""

    @pytest.mark.parametrize("keep", [1, 2, 5, 11, 12, 13, 19, 25])
    def test_truncated_record(self, tmp_path, keep):
        path = tmp_path / "t.sst"
        _valid_table(path)
        data = path.read_bytes()[8:]
        _rewrite_data_block(path, data[:keep])
        with pytest.raises(ValueError, match="malformed SSTable"):
            SSTable(path)

    def test_every_cut_of_the_last_record(self, tmp_path):
        path = tmp_path / "t.sst"
        data_len = _valid_table(path)
        original = path.read_bytes()
        data = original[8 : 8 + data_len]
        last = data.rindex(b"zz") - 1
        for cut in range(last + 1, data_len):
            path.write_bytes(original)
            _rewrite_data_block(path, data[:cut])
            with pytest.raises(ValueError, match="malformed SSTable"):
                SSTable(path)

    def test_unknown_flag(self, tmp_path):
        path = tmp_path / "t.sst"
        data_len = _valid_table(path)
        data = bytearray(path.read_bytes()[8 : 8 + data_len])
        data[1 + 10] = 7  # first record: key_len, 10-byte key, flag
        _rewrite_data_block(path, bytes(data))
        with pytest.raises(ValueError, match="flag"):
            SSTable(path)

    def test_keys_out_of_order(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, [(b"a", b"1")])
        one = path.read_bytes()[8:14]
        write_sstable(path, [(b"b", b"2")])
        two = path.read_bytes()[8:14]
        _rewrite_data_block(path, two + one)
        with pytest.raises(ValueError, match="ascend"):
            SSTable(path)

    def test_quarantined_at_recovery_and_gets_never_raise(self, tmp_path):
        store = KVStore(tmp_path, compaction_trigger=100)
        for i in range(3):
            store.put(b"k-%d" % i, b"v-%d" % i)
            store.flush()
        store.close()
        damaged = tmp_path / "table-1.sst"
        raw = damaged.read_bytes()
        data_len = _FOOTER.unpack(raw[-_FOOTER.size :])[0]
        _rewrite_data_block(damaged, raw[8 : 8 + data_len - 1])
        reopened = KVStore(tmp_path, compaction_trigger=100)
        assert (tmp_path / "quarantine" / "table-1.sst").exists()
        assert reopened.table_count() == 2
        assert reopened.get(b"k-0") == b"v-0"
        assert reopened.get(b"k-1") is None
        assert reopened.get(b"k-2") == b"v-2"
        assert reopened.get(b"absent") is None
        reopened.close()
