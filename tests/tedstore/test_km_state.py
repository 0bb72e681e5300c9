"""Durable key-manager state: snapshot/delta persistence and crash replay.

The contract under test (DESIGN.md §12): once a key-generation batch is
acked, a crashed-and-restarted key manager replays it — so the frequency
state, and therefore every *future* seed decision, is exactly what a
never-crashed key manager would have produced. Deterministic seed
selection (``probabilistic=False``) makes that comparable seed-for-seed.
"""

import random
import zlib

import pytest

from repro.core.ted import TedKeyManager
from repro.storage import crash
from repro.storage.crash import InjectedCrash
from repro.tedstore import km_state as km_state_mod
from repro.tedstore.km_state import KeyManagerStateStore
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.messages import KeyGenRequest
from repro.utils.varint import encode_uvarint

_WIDTH = 1024


def make_km():
    """FTED, deterministic seeds, retune every 64 requests."""
    return TedKeyManager(
        secret=b"km-state-secret",
        blowup_factor=1.05,
        batch_size=64,
        sketch_width=_WIDTH,
        probabilistic=False,
    )


def make_batches(count=10, chunks=20, seed=3):
    rng = random.Random(seed)
    return [
        [[rng.randrange(_WIDTH) for _ in range(4)] for _ in range(chunks)]
        for _ in range(count)
    ]


def km_state(km):
    """Complete frequency state, bit-for-bit comparable."""
    return (
        km.sketch._counters.tobytes(),
        km.sketch.total,
        km.t,
        dict(km._freq_by_identity),
        km._requests_in_batch,
        km.stats.requests,
    )


class TestRestoreEquivalence:
    def test_restore_matches_in_memory_state(self, tmp_path):
        batches = make_batches()
        baseline = make_km()
        for batch in batches:
            baseline.generate_seeds(batch)

        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=3),
        )
        for batch in batches:
            service.handle_keygen(KeyGenRequest(hash_vectors=batch))
        # Process crash: no close(), no final snapshot.
        restored = KeyManagerService(
            make_km(), state_store=KeyManagerStateStore(tmp_path)
        )
        assert km_state(restored.key_manager) == km_state(baseline)
        # Future seeds are identical to the never-crashed run's.
        probe = make_batches(count=1, seed=99)[0]
        assert (
            restored.handle_keygen(KeyGenRequest(hash_vectors=probe)).seeds
            == baseline.generate_seeds(probe)
        )

    def test_snapshot_truncates_delta_log(self, tmp_path):
        store = KeyManagerStateStore(tmp_path, snapshot_every=2)
        service = KeyManagerService(make_km(), state_store=store)
        for batch in make_batches(count=4):
            service.handle_keygen(KeyGenRequest(hash_vectors=batch))
        assert (tmp_path / "snapshot.bin").exists()
        assert (tmp_path / "delta.log").stat().st_size == 0

    def test_close_snapshots_pending_state(self, tmp_path):
        batches = make_batches(count=3)
        baseline = make_km()
        for batch in batches:
            baseline.generate_seeds(batch)
        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=100),
        )
        for batch in batches:
            service.handle_keygen(KeyGenRequest(hash_vectors=batch))
        service.close()
        restored = KeyManagerService(
            make_km(), state_store=KeyManagerStateStore(tmp_path)
        )
        assert restored.restore_report.snapshot_loaded
        assert restored.restore_report.deltas_replayed == 0
        assert km_state(restored.key_manager) == km_state(baseline)

    def test_snapshot_with_a_client_map_still_restores(self, tmp_path):
        """A snapshot from before the per-client slot was reserved
        (non-empty map after the frequency map) loads to the same state,
        and the next snapshot no longer carries the entries."""
        batches = make_batches(count=3)
        baseline = make_km()
        for batch in batches:
            baseline.generate_seeds(batch)
        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=100),
        )
        for batch in batches:
            service.handle_keygen(KeyGenRequest(hash_vectors=batch))
        service.close()
        snapshot = tmp_path / "snapshot.bin"
        blob = snapshot.read_bytes()
        header = len(km_state_mod._MAGIC) + 4
        assert blob[-1] == 0  # the reserved slot, written empty
        body = bytearray(blob[header:-1])
        clients = {"alice": 2, "10.0.0.7": 41}
        body += encode_uvarint(len(clients))
        for client_id, sequence in clients.items():
            body += encode_uvarint(len(client_id)) + client_id.encode()
            body += encode_uvarint(sequence)
        old_blob = (
            km_state_mod._MAGIC
            + zlib.crc32(bytes(body)).to_bytes(4, "little")
            + bytes(body)
        )
        snapshot.write_bytes(old_blob)

        restored = KeyManagerService(
            make_km(), state_store=KeyManagerStateStore(tmp_path)
        )
        assert restored.restore_report.snapshot_loaded
        assert km_state(restored.key_manager) == km_state(baseline)
        restored.close()
        assert len(snapshot.read_bytes()) == len(blob) < len(old_blob)

    def test_geometry_mismatch_raises(self, tmp_path):
        store = KeyManagerStateStore(tmp_path)
        service = KeyManagerService(make_km(), state_store=store)
        service.handle_keygen(
            KeyGenRequest(hash_vectors=make_batches(count=1)[0])
        )
        service.close()
        other = TedKeyManager(
            secret=b"km-state-secret",
            blowup_factor=1.05,
            sketch_width=2 * _WIDTH,
            probabilistic=False,
        )
        with pytest.raises(ValueError):
            KeyManagerStateStore(tmp_path).restore_into(other)

    def test_corrupt_snapshot_is_ignored(self, tmp_path):
        store = KeyManagerStateStore(tmp_path, snapshot_every=1)
        service = KeyManagerService(make_km(), state_store=store)
        service.handle_keygen(
            KeyGenRequest(hash_vectors=make_batches(count=1)[0])
        )
        snapshot = tmp_path / "snapshot.bin"
        blob = bytearray(snapshot.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        snapshot.write_bytes(bytes(blob))
        report = KeyManagerStateStore(tmp_path).restore_into(make_km())
        assert not report.snapshot_loaded

    def test_torn_delta_tail_replays_prefix(self, tmp_path):
        batches = make_batches(count=4)
        baseline = make_km()
        for batch in batches[:3]:
            baseline.generate_seeds(batch)
        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=100),
        )
        for batch in batches:
            service.handle_keygen(KeyGenRequest(hash_vectors=batch))
        delta = tmp_path / "delta.log"
        delta.write_bytes(delta.read_bytes()[:-7])  # tear the last record
        restored = make_km()
        report = KeyManagerStateStore(tmp_path).restore_into(restored)
        assert report.deltas_replayed == 3
        assert km_state(restored) == km_state(baseline)

    def test_bounded_staleness_with_relaxed_sync(self, tmp_path):
        # sync_every > 1 defers fsync, but a *process* crash loses
        # nothing: appends are flushed to the OS before the ack.
        batches = make_batches(count=5)
        baseline = make_km()
        for batch in batches:
            baseline.generate_seeds(batch)
        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(
                tmp_path, snapshot_every=100, sync_every=4
            ),
        )
        for batch in batches:
            service.handle_keygen(KeyGenRequest(hash_vectors=batch))
        restored = make_km()
        KeyManagerStateStore(tmp_path).restore_into(restored)
        assert km_state(restored) == km_state(baseline)


CRASH_POINTS = [
    "km.delta.append",
    "km.snapshot.write",
    "km.snapshot.before_fsync",
    "km.snapshot.before_rename",
    "km.snapshot.before_dirsync",
    "km.delta.before_truncate",
]


class TestCrashMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_kill_and_recover(self, tmp_path, point):
        """Crash at every persistence barrier; recovered state must equal
        a clean key manager fed exactly the batches whose effects became
        durable — never a torn in-between."""
        batches = make_batches(count=8)
        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=2),
        )
        crash.get_injector().arm(point)
        acked = 0
        crashed = False
        for batch in batches:
            try:
                service.handle_keygen(KeyGenRequest(hash_vectors=batch))
                acked += 1
            except InjectedCrash:
                crashed = True
                break
        assert crashed, f"point {point} never fired"

        restored = KeyManagerService(
            make_km(), state_store=KeyManagerStateStore(tmp_path)
        )
        requests = restored.key_manager.stats.requests
        assert requests % 20 == 0
        durable_batches = requests // 20
        # Every acked batch is durable; the in-flight one may be too
        # (the crash fired after its delta append succeeded).
        assert durable_batches in (acked, acked + 1)
        reference = make_km()
        for batch in batches[:durable_batches]:
            reference.generate_seeds(batch)
        assert km_state(restored.key_manager) == km_state(reference)
        # Determinism going forward: the retried/next batch gets exactly
        # the seeds the reference state derives.
        nxt = batches[durable_batches]
        assert (
            restored.handle_keygen(KeyGenRequest(hash_vectors=nxt)).seeds
            == reference.generate_seeds(nxt)
        )

    def test_unacked_torn_batch_is_not_replayed(self, tmp_path):
        """A torn delta append (the ack never happened) must vanish: the
        retry then derives the same seeds the original attempt would
        have — no double-count, no divergence."""
        batches = make_batches(count=3)
        baseline = make_km()
        baseline_seeds = [baseline.generate_seeds(b) for b in batches]

        service = KeyManagerService(
            make_km(),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=100),
        )
        got = [
            service.handle_keygen(KeyGenRequest(hash_vectors=b)).seeds
            for b in batches[:2]
        ]
        crash.get_injector().arm("km.delta.append", torn_bytes=9)
        with pytest.raises(InjectedCrash):
            service.handle_keygen(KeyGenRequest(hash_vectors=batches[2]))

        restored = KeyManagerService(
            make_km(), state_store=KeyManagerStateStore(tmp_path)
        )
        retry = restored.handle_keygen(
            KeyGenRequest(hash_vectors=batches[2])
        ).seeds
        assert got == baseline_seeds[:2]
        assert retry == baseline_seeds[2]
