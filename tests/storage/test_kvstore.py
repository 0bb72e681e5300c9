"""LSM KV store against a dict model, plus recovery and compaction."""

import hashlib
import json
import random
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.storage.dedup import DedupEngine
from repro.storage.kvstore import KVStore

_DATA = Path(__file__).parent / "data"


@pytest.fixture
def store(tmp_path):
    s = KVStore(tmp_path, memtable_bytes=512, compaction_trigger=3)
    yield s
    s.close()


class TestBasicOps:
    def test_put_get(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_missing(self, store):
        assert store.get(b"missing") is None
        assert store.get(b"missing", b"fallback") == b"fallback"

    def test_overwrite_across_flush(self, store):
        store.put(b"k", b"old")
        store.flush()
        store.put(b"k", b"new")
        assert store.get(b"k") == b"new"
        store.flush()
        assert store.get(b"k") == b"new"

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_delete_masks_flushed_value(self, store):
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.flush()
        assert store.get(b"k") is None

    def test_contains(self, store):
        store.put(b"k", b"v")
        assert b"k" in store
        assert b"nope" not in store

    def test_items_sorted_and_live(self, store):
        store.put(b"c", b"3")
        store.put(b"a", b"1")
        store.flush()
        store.put(b"b", b"2")
        store.delete(b"c")
        assert list(store.items()) == [(b"a", b"1"), (b"b", b"2")]

    def test_len(self, store):
        for i in range(10):
            store.put(bytes([i]), b"v")
        store.delete(bytes([0]))
        assert len(store) == 9


class TestModelConformance:
    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.integers(0, 30),
                st.binary(max_size=12),
            ),
            max_size=150,
        )
    )
    def test_random_ops_match_dict(self, tmp_path_factory, ops):
        directory = tmp_path_factory.mktemp("kv")
        store = KVStore(directory, memtable_bytes=256, compaction_trigger=2)
        model = {}
        try:
            for op, key_id, value in ops:
                key = b"key-%d" % key_id
                if op == "put":
                    store.put(key, value)
                    model[key] = value
                else:
                    store.delete(key)
                    model.pop(key, None)
            for key_id in range(31):
                key = b"key-%d" % key_id
                assert store.get(key) == model.get(key)
            assert dict(store.items()) == model
        finally:
            store.close()


class TestDurability:
    def test_recovery_from_wal_without_close(self, tmp_path):
        store = KVStore(tmp_path, memtable_bytes=1 << 20)
        store.put(b"k1", b"v1")
        store.put(b"k2", b"v2")
        store.delete(b"k1")
        # No close/flush: simulate a crash; state lives only in the WAL.
        reopened = KVStore(tmp_path, memtable_bytes=1 << 20)
        assert reopened.get(b"k1") is None
        assert reopened.get(b"k2") == b"v2"
        reopened.close()

    def test_recovery_from_tables_and_wal(self, tmp_path):
        store = KVStore(tmp_path, memtable_bytes=128, compaction_trigger=10)
        reference = {}
        rng = random.Random(3)
        for i in range(200):
            key = b"k-%d" % rng.randrange(50)
            value = b"v-%d" % i
            store.put(key, value)
            reference[key] = value
        reopened = KVStore(tmp_path, memtable_bytes=128, compaction_trigger=10)
        assert dict(reopened.items()) == reference
        reopened.close()
        store.close()

    def test_close_flushes(self, tmp_path):
        store = KVStore(tmp_path)
        store.put(b"k", b"v")
        store.close()
        reopened = KVStore(tmp_path)
        assert reopened.get(b"k") == b"v"
        assert reopened.table_count() >= 1
        reopened.close()


class TestCompaction:
    def test_compaction_reduces_table_count(self, tmp_path):
        store = KVStore(tmp_path, memtable_bytes=64, compaction_trigger=3)
        for i in range(100):
            store.put(b"key-%03d" % (i % 20), b"value-%d" % i)
        assert store.stats["compactions"] >= 1
        assert store.table_count() < 3
        store.close()

    def test_compaction_preserves_latest_values(self, tmp_path):
        store = KVStore(tmp_path, memtable_bytes=64, compaction_trigger=2)
        for round_ in range(5):
            for i in range(10):
                store.put(b"k-%d" % i, b"round-%d" % round_)
            store.flush()
        for i in range(10):
            assert store.get(b"k-%d" % i) == b"round-4"
        store.close()

    def test_compaction_drops_tombstones(self, tmp_path):
        store = KVStore(tmp_path, memtable_bytes=1 << 20, compaction_trigger=100)
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.flush()
        store.compact()
        assert store.table_count() == 1
        assert store.get(b"k") is None
        assert all(value is not None for _, value in store._tables[0])
        store.close()

    def test_explicit_compact_noop_on_single_table(self, tmp_path):
        store = KVStore(tmp_path)
        store.put(b"k", b"v")
        store.flush()
        before = store.stats["compactions"]
        store.compact()
        assert store.stats["compactions"] == before
        store.close()

    def test_disk_bytes_positive_after_flush(self, tmp_path):
        store = KVStore(tmp_path)
        store.put(b"k", b"v" * 100)
        store.flush()
        assert store.disk_bytes() > 0
        store.close()


class TestRecoveryIds:
    def test_quarantined_id_is_never_reused(self, tmp_path):
        """A quarantined table's id stays burned across reopens.

        Reusing it would make a second quarantine of that id overwrite
        the first one's evidence in ``quarantine/``.
        """
        store = KVStore(tmp_path, compaction_trigger=100)
        for i in range(5):
            store.put(b"k-%d" % i, b"v")
            store.flush()
        store.close()
        (tmp_path / "table-4.sst").write_bytes(b"garbage")
        KVStore(tmp_path, compaction_trigger=100).close()  # quarantines it
        reopened = KVStore(tmp_path, compaction_trigger=100)
        reopened.put(b"new", b"v")
        reopened.flush()
        assert not (tmp_path / "table-4.sst").exists()
        reopened.close()
        assert (tmp_path / "quarantine" / "table-4.sst").read_bytes() == (
            b"garbage"
        )

    def test_unparsable_table_name_is_quarantined(self, tmp_path):
        """A stray ``table-*.sst`` whose id does not parse is set aside
        like a corrupt table instead of aborting startup."""
        store = KVStore(tmp_path)
        store.put(b"k", b"v")
        store.close()
        (tmp_path / "table-old.sst").write_bytes(b"stray")
        reopened = KVStore(tmp_path)
        assert reopened.get(b"k") == b"v"
        assert (tmp_path / "quarantine" / "table-old.sst").exists()
        assert not (tmp_path / "table-old.sst").exists()
        reopened.close()


def _filter_len(path):
    """The ``filter_len`` field of an SSTable footer."""
    return struct.unpack("<QQQI8s", path.read_bytes()[-36:])[1]


class TestParentFormat:
    """A store written by a build whose SSTables carried a Bloom filter.

    ``data/parent_index`` is a :class:`DedupEngine` directory made with
    ``container_bytes=1024`` and ``kvstore_options={"memtable_bytes":
    1024, "compaction_trigger": 100}`` by storing the 48 chunks
    ``b"chunk-%03d-" % i * 6`` under their SHA-256, sealing the open
    container and stopping without an index flush: two flushed tables,
    each with a non-empty filter block, plus a WAL tail.
    ``parent_index.locations.json`` maps each fingerprint to the
    location the index held then.
    """

    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(_DATA / "parent_index", root)
        return root

    def _check_serves(self, engine, expected):
        for fp_hex, location_hex in expected.items():
            fingerprint = bytes.fromhex(fp_hex)
            assert engine.index.get(fingerprint) == bytes.fromhex(
                location_hex
            )
            assert hashlib.sha256(engine.load(fingerprint)).digest() == (
                fingerprint
            )
        for i in range(48, 96):
            absent = hashlib.sha256(b"chunk-%03d-" % i * 6).digest()
            assert not engine.contains(absent)
            assert engine.index.get(absent) is None

    def test_opens_serves_compacts_and_passes_fsck(self, root, capsys):
        expected = json.loads(
            (_DATA / "parent_index.locations.json").read_text()
        )
        tables = sorted((root / "index").glob("table-*.sst"))
        assert len(tables) >= 2
        assert all(_filter_len(t) > 0 for t in tables)
        assert (root / "index" / "wal.log").stat().st_size > 0

        engine = DedupEngine(root)
        assert engine.recovered_index_drops == 0
        assert engine.index.table_count() == len(tables)
        self._check_serves(engine, expected)
        engine.index.compact()
        assert engine.index.table_count() == 1
        self._check_serves(engine, expected)
        engine.close()

        assert all(
            _filter_len(t) == 0 for t in (root / "index").glob("table-*.sst")
        )
        reopened = DedupEngine(root)
        self._check_serves(reopened, expected)
        reopened.close()

        assert main(["fsck", "--storage", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"]
        assert report["index_entries_checked"] == len(expected)
