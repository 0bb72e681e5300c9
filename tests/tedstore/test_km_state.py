"""Durable key-manager state: snapshot/delta persistence and crash replay.

The contract under test (DESIGN.md §12): once a key-generation batch is
acked, a crashed-and-restarted key manager replays it — so the frequency
state, and therefore every *future* seed decision, is exactly what a
never-crashed key manager would have produced. Deterministic seed
selection (``probabilistic=False``) makes that comparable seed-for-seed.
"""

import hashlib
import os
import random
import zlib

import numpy as np
import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.murmur3 import short_hashes
from repro.storage import crash
from repro.storage.crash import InjectedCrash
from repro.tedstore import km_state as km_state_mod
from repro.tedstore.km_state import KeyManagerStateStore
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.messages import BatchedKeyGenRequest, KeyGenRequest
from repro.tedstore.ratelimit import KeyGenRateLimiter, RateLimitExceeded
from repro.tedstore.reshard import _peek_geometry
from repro.utils.varint import decode_uvarint, encode_uvarint

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


def snapshot_blob(body, magic=km_state_mod._MAGIC):
    """A snapshot file around ``body`` with a valid CRC."""
    return magic + zlib.crc32(body).to_bytes(4, "little") + body


def header_bytes(km, batch_high):
    """The eight leading varints every snapshot magic shares."""
    return b"".join(
        encode_uvarint(value)
        for value in (
            km.sketch.rows,
            km.sketch.width,
            km.sketch.total,
            km.t,
            km._requests_in_batch,
            km.stats.requests,
            km.stats.batches_tuned,
            batch_high,
        )
    )


def freq_map_bytes(km):
    out = bytearray(encode_uvarint(len(km._freq_by_identity)))
    for identity, frequency in km._freq_by_identity.items():
        out += encode_uvarint(len(identity))
        for short_hash in identity:
            out += encode_uvarint(short_hash)
        out += encode_uvarint(frequency)
    return bytes(out)


def dense_snapshot(km, batch_high):
    """A ``TEDKMS1`` snapshot: every counter deflated, in the layout
    key managers wrote before snapshots became sparse."""
    counters = zlib.compress(km.sketch._counters.tobytes())
    body = (
        header_bytes(km, batch_high)
        + encode_uvarint(len(counters))
        + counters
        + freq_map_bytes(km)
        + encode_uvarint(0)
    )
    return snapshot_blob(body, magic=b"TEDKMS1\n")


def sparse_counters(gaps, counts):
    """A sparse counters body: uint32 gaps then counts, byte planes."""
    values = np.array(list(gaps) + list(counts), dtype="<u4")
    return zlib.compress(values.view(np.uint8).reshape(-1, 4).T.tobytes())


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


def _run_batches(tmp_path, batches, snapshot_every):
    service = KeyManagerService(
        make_km(),
        state_store=KeyManagerStateStore(
            tmp_path, snapshot_every=snapshot_every
        ),
    )
    for batch in batches:
        service.handle_keygen(KeyGenRequest(hash_vectors=batch))
    return service


class TestSnapshotFormat:
    def test_dense_snapshot_restores_and_is_rewritten_sparse(self, tmp_path):
        """A ``TEDKMS1`` state dir restores to the never-crashed state
        (delta replay on top included), and its next snapshot is the
        smaller sparse ``TEDKMS2``."""
        batches = make_batches(count=3)
        baseline = make_km()
        for batch in batches:
            baseline.generate_seeds(batch)
        # Crash after batch 3: the snapshot holds batches 1-2, the delta
        # log batch 3. Swap the snapshot for its dense equivalent.
        _run_batches(tmp_path, batches, snapshot_every=2)
        at_snapshot = make_km()
        for batch in batches[:2]:
            at_snapshot.generate_seeds(batch)
        snapshot = tmp_path / "snapshot.bin"
        dense = dense_snapshot(at_snapshot, batch_high=2)
        snapshot.write_bytes(dense)
        assert _peek_geometry(snapshot) == (4, _WIDTH)

        restored = KeyManagerService(
            make_km(), state_store=KeyManagerStateStore(tmp_path)
        )
        assert restored.restore_report.snapshot_loaded
        assert restored.restore_report.deltas_replayed == 1
        assert km_state(restored.key_manager) == km_state(baseline)
        restored.close()
        sparse = snapshot.read_bytes()
        assert sparse.startswith(b"TEDKMS2\n")
        assert len(sparse) < len(dense_snapshot(baseline, batch_high=3))
        assert _peek_geometry(snapshot) == (4, _WIDTH)

    @pytest.mark.parametrize("cells", [0, 1, 300])
    def test_sparse_counters_round_trip(self, cells):
        """Every byte plane is exercised: gaps past 2**16, counts up to
        the uint32 maximum, and the first and last cells of the sketch."""
        rows, width = 4, 2**18
        rng = np.random.default_rng(cells)
        counters = np.zeros(rows * width, dtype=np.uint32)
        picked = rng.choice(rows * width, size=cells, replace=False)
        counters[picked] = rng.integers(1, 2**32, size=cells, dtype=np.uint64)
        if cells > 1:
            counters[[0, rows * width - 1]] = [2**32 - 1, 1]
        counters = counters.reshape(rows, width)
        count, body = km_state_mod._encode_counters(counters)
        assert count == np.count_nonzero(counters)
        decoded = km_state_mod._decode_counters(body, count, rows, width)
        assert decoded.dtype == np.uint32
        assert (decoded == counters).all()

    def test_snapshot_size_does_not_follow_the_geometry(self, tmp_path):
        """The same 1,000-key stream (100 distinct chunks) snapshots to
        within 1 KiB in a 4 x 2**10 and a 4 x 2**21 sketch. The dense
        form differed by the ~32 KiB that 32 MiB of zeros deflates to."""
        rng = random.Random(4)
        digests = [
            hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(100)
        ]
        stream = [rng.choice(digests) for _ in range(1000)]
        sizes = []
        for width in (2**10, 2**21):
            directory = tmp_path / str(width)
            service = KeyManagerService(
                TedKeyManager(secret=b"s", t=5, sketch_width=width),
                state_store=KeyManagerStateStore(directory),
            )
            for start in range(0, len(stream), 100):
                service.handle_keygen(
                    KeyGenRequest(
                        hash_vectors=[
                            short_hashes(d, 4, width)
                            for d in stream[start : start + 100]
                        ]
                    )
                )
            service.close()
            sizes.append((directory / "snapshot.bin").stat().st_size)
        assert abs(sizes[0] - sizes[1]) < 1024, sizes


def _malformed_bodies():
    """CRC-valid ``TEDKMS2`` bodies whose fields do not parse."""
    km = make_km()
    header = header_bytes(km, batch_high=1)
    tail = encode_uvarint(0) + encode_uvarint(0)  # empty map, empty slot

    def counters(cells, body):
        return encode_uvarint(cells) + encode_uvarint(len(body)) + body

    one_cell = counters(1, sparse_counters([5], [2]))
    km.generate_seeds(make_batches(count=1)[0])
    return {
        "counters-not-deflate": header
        + counters(1, b"not a deflate stream")
        + tail,
        "counters-short": header + counters(3, sparse_counters([5], [2])) + tail,
        "map-truncated": header
        + one_cell
        + freq_map_bytes(km)[:-3],
        "cell-past-sketch": header
        + counters(1, sparse_counters([4 * _WIDTH + 1], [2]))
        + tail,
        "cell-repeated": header
        + counters(2, sparse_counters([5, 0], [2, 1]))
        + tail,
        "count-zero": header + counters(1, sparse_counters([5], [0])) + tail,
    }


class TestMalformedSnapshot:
    @pytest.mark.parametrize("case", sorted(_malformed_bodies()))
    def test_fails_typed_and_leaves_the_key_manager_untouched(
        self, tmp_path, case
    ):
        snapshot = tmp_path / "snapshot.bin"
        snapshot.write_bytes(snapshot_blob(_malformed_bodies()[case]))
        km = make_km()
        with pytest.raises(ValueError, match="snapshot.bin"):
            KeyManagerStateStore(tmp_path).restore_into(km)
        assert km_state(km) == km_state(make_km())
        with pytest.raises(ValueError, match="snapshot.bin"):
            KeyManagerService(
                make_km(), state_store=KeyManagerStateStore(tmp_path)
            )

    def test_malformed_dense_counters_fail_typed(self, tmp_path):
        km = make_km()
        short = zlib.compress(km.sketch._counters.tobytes()[:-4])
        body = (
            header_bytes(km, batch_high=0)
            + encode_uvarint(len(short))
            + short
            + encode_uvarint(0)
            + encode_uvarint(0)
        )
        (tmp_path / "snapshot.bin").write_bytes(
            snapshot_blob(body, magic=b"TEDKMS1\n")
        )
        with pytest.raises(ValueError, match="snapshot.bin"):
            KeyManagerStateStore(tmp_path).restore_into(km)
        assert km_state(km) == km_state(make_km())


_VECTORS = [[1, 300, 2**20, 2**32 + 5], [], [127, 128]]


class TestDeltaCodec:
    """The delta log and the wire share one vector codec; both keep the
    bytes they had before it was shared."""

    def test_delta_record_bytes_are_unchanged(self):
        payload = km_state_mod._encode_batch(300, "alice", 129, _VECTORS)
        assert payload.hex() == (
            "ac0205616c6963658101030401ac02808040858080801000027f8001"
        )
        assert km_state_mod._decode_batch(payload) == (
            300,
            "alice",
            129,
            _VECTORS,
        )

    def test_keygen_wire_bytes_are_unchanged(self):
        request = BatchedKeyGenRequest(sequence=129, hash_vectors=_VECTORS)
        assert request.encode().hex() == (
            "8101030401ac02808040858080801000027f8001"
        )
        assert BatchedKeyGenRequest.decode(request.encode()) == request


def _golden_store(directory):
    """Three logged FTED batches (one repeated identity), no retune."""
    store = KeyManagerStateStore(directory, snapshot_every=100)
    km = TedKeyManager(
        secret=b"golden",
        blowup_factor=1.05,
        batch_size=64,
        sketch_width=_WIDTH,
        probabilistic=False,
    )
    rng = random.Random(5)
    batches = [
        [[rng.randrange(_WIDTH) for _ in range(4)] for _ in range(6)]
        for _ in range(3)
    ]
    batches[1][2] = list(batches[0][1])
    for sequence, batch in enumerate(batches):
        km.generate_seeds(batch)
        store.log_batch("client-é", sequence, batch, key_manager=km)
    return store, km


def _snapshot_parts(blob):
    """(varint header hex, SHA-256 of the inflated counters, tail hex).

    The deflated bytes themselves are left out: they belong to the zlib
    build, not to this codec.
    """
    payload = blob[km_state_mod._PREFIX :]
    pos = 0
    for _ in range(9):
        _, pos = decode_uvarint(payload, pos)
    length, pos = decode_uvarint(payload, pos)
    counters = zlib.decompress(payload[pos : pos + length])
    return (
        payload[:pos].hex(),
        hashlib.sha256(counters).hexdigest(),
        payload[pos + length :].hex(),
    )


class TestGoldenStateBytes:
    """The delta log and the snapshot keep, byte for byte, what the
    per-value varint encoder wrote for the same state."""

    def test_delta_log_bytes(self, tmp_path):
        store, _ = _golden_store(tmp_path)
        store.close()
        assert (tmp_path / "delta.log").read_bytes().hex() == (
            "a5852c884800000000056261746368400109636c69656e742dc3a90006048b"
            "04de053bb90704fe036ac102e70104f905c007f8038b0604d001fe031abb03"
            "04c306bc04f4029d0604c60293019c028f0790b6cebb470000000005626174"
            "63683f0209636c69656e742dc3a901060483028e02030a04ac03b903d302d4"
            "0204fe036ac102e70104f40293039006e304042ce305d106d30204aa029c04"
            "8501a7052797e30846000000000562617463683e0309636c69656e742dc3a9"
            "020604e90406b405870104fa04d705f204d807048605fa02d907c70704e802"
            "748c042e04dc05bb0625d90604ed058206129f07"
        )

    def test_fted_snapshot_bytes(self, tmp_path):
        store, km = _golden_store(tmp_path)
        store.snapshot(km)
        store.close()
        blob = (tmp_path / "snapshot.bin").read_bytes()
        assert blob.startswith(b"TEDKMS2\n")
        assert _snapshot_parts(blob) == (
            "048008120112120003445d",
            "a6421c14e33c25019851205a004609dd6839ceadad1a9ad865ad3fd25dbdf84f",
            "11048b04de053bb9070104fe036ac102e7010204f905c007f8038b060104d0"
            "01fe031abb030104c306bc04f4029d060104c60293019c028f07010483028e"
            "02030a0104ac03b903d302d4020104f40293039006e30401042ce305d106d3"
            "020104aa029c048501a7050104e90406b40587010104fa04d705f204d80701"
            "048605fa02d907c7070104e802748c042e0104dc05bb0625d9060104ed0582"
            "06129f070100",
        )
        assert blob[8:12] == zlib.crc32(blob[12:]).to_bytes(4, "little")

    def test_frequency_map_encodes_like_the_per_value_encoder(self, tmp_path):
        store, km = _golden_store(tmp_path)
        store.snapshot(km)
        store.close()
        blob = (tmp_path / "snapshot.bin").read_bytes()
        tail = bytes.fromhex(_snapshot_parts(blob)[2])
        assert tail == freq_map_bytes(km) + encode_uvarint(0)


class TestEmptyBatch:
    """An empty keygen batch has no frequency effect, so it must cost
    nothing durable: no record, no fsync, no snapshot cadence."""

    def _service(self, tmp_path):
        return KeyManagerService(
            make_km(),
            rate_limiter=KeyGenRateLimiter(
                chunks_per_second=1, burst_chunks=1
            ),
            state_store=KeyManagerStateStore(tmp_path, snapshot_every=64),
        )

    def test_empty_batches_log_and_sync_nothing(self, tmp_path, monkeypatch):
        service = self._service(tmp_path)
        delta = tmp_path / "delta.log"
        before = delta.read_bytes() if delta.exists() else b""
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )
        for _ in range(200):
            response = service.handle_keygen(
                KeyGenRequest(hash_vectors=[]), client_id="c"
            )
            assert response.seeds == []
        assert fsyncs == []
        assert (delta.read_bytes() if delta.exists() else b"") == before
        assert not (tmp_path / "snapshot.bin").exists()
        assert service.key_manager.stats.requests == 0
        assert service.rate_limiter.stats == {"allowed": 0, "rejected": 0}
        # The limiter's one-chunk budget is still whole.
        service.handle_keygen(
            KeyGenRequest(hash_vectors=[[1, 2, 3, 4]]), client_id="c"
        )
        with pytest.raises(RateLimitExceeded):
            service.handle_keygen(
                KeyGenRequest(hash_vectors=[[1, 2, 3, 4]]), client_id="c"
            )
        service.close()

    def test_empty_sequenced_batch_keeps_the_stream_order(self, tmp_path):
        from repro.tedstore.keymanager import KeygenStream

        service = self._service(tmp_path)
        stream = KeygenStream()
        response = service.handle_keygen_batched(
            BatchedKeyGenRequest(sequence=3, hash_vectors=[]),
            stream=stream,
        )
        assert (response.sequence, response.seeds) == (3, [])
        assert response.current_t == service.key_manager.t
        with pytest.raises(ValueError, match="stale"):
            service.handle_keygen_batched(
                BatchedKeyGenRequest(sequence=2, hash_vectors=[]),
                stream=stream,
            )
        service.close()
