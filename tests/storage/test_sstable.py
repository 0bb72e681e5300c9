"""SSTables: lookups, tombstones, sparse index, corruption detection."""

import struct
import zlib

import pytest

from repro.storage.sstable import SSTable, write_sstable

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
