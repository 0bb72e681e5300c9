"""ShardedKeyManager unit behaviour (DESIGN.md §15).

The parity gate (tests/integration/test_shard_parity.py) proves whole-
deployment equivalence; these tests pin the service-level contracts in
isolation: seed-for-seed equality with the single key manager, the
sequenced-stream ordering check, FTED tune propagation to every shard
observer, durable restore from per-shard stores plus the front log,
ring persistence/mismatch handling, rate-limiter pass-through, and
parity between the in-process and the remote observer pool.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.murmur3 import short_hashes
from repro.storage.wal import WriteAheadLog
from repro.tedstore import km_state
from repro.tedstore.keymanager import KeygenStream
from repro.tedstore.messages import (
    BatchedKeyGenRequest,
    KeyGenRequest,
    ShardObserveRequest,
    ShardObserveResponse,
)
from repro.tedstore.ratelimit import KeyGenRateLimiter, RateLimitExceeded
from repro.tedstore.fleet import RemoteKmShardPool
from repro.tedstore.ring import HashRing
from repro.tedstore.sharding import (
    ShardObserverService,
    ShardedKeyManager,
    make_shard_observer,
)
from repro.utils.varint import decode_uvarint

_WIDTH = 2**12
_ROWS = 4


def _front(mode: str = "fted", batch_size: int = 128) -> TedKeyManager:
    if mode == "mle":
        return TedKeyManager(
            secret=b"unit", t=10**9, probabilistic=False, sketch_width=_WIDTH
        )
    if mode == "bted":
        return TedKeyManager(
            secret=b"unit",
            t=4,
            sketch_width=_WIDTH,
            rng=random.Random(3),
        )
    return TedKeyManager(
        secret=b"unit",
        blowup_factor=1.05,
        batch_size=batch_size,
        sketch_width=_WIDTH,
        rng=random.Random(3),
    )


def _vectors(count: int, distinct: int = 16, seed: int = 5) -> list:
    rng = random.Random(seed)
    blocks = [rng.randbytes(48) for _ in range(distinct)]
    import hashlib

    return [
        short_hashes(
            hashlib.sha256(blocks[rng.randrange(distinct)]).digest(),
            _ROWS,
            _WIDTH,
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("mode", ["mle", "bted", "fted"])
@pytest.mark.parametrize("shards", [2, 5])
def test_seeds_match_single_km(mode, shards):
    """Identical config + RNG ⇒ identical seeds, request for request."""
    single = _front(mode)
    sharded = ShardedKeyManager(_front(mode), HashRing.build(shards, seed=1))
    for start in range(0, 400, 100):
        batch = _vectors(400)[start : start + 100]
        expected = single.generate_seeds(batch)
        got = sharded.handle_keygen(KeyGenRequest(hash_vectors=batch)).seeds
        assert got == expected
    assert sharded.key_manager.t == single.t
    assert sharded.key_manager.stats.requests == single.stats.requests


def test_fted_tune_propagates_to_all_shards():
    sharded = ShardedKeyManager(
        _front("fted", batch_size=64), HashRing.build(3, seed=1)
    )
    response = sharded.handle_keygen(
        KeyGenRequest(hash_vectors=_vectors(200))
    )
    front = sharded.key_manager
    assert front.stats.batches_tuned >= 1
    assert response.current_t == front.t
    for observer in sharded.shard_key_managers().values():
        assert observer.t == front.t


def test_batched_sequence_regression_rejected():
    sharded = ShardedKeyManager(_front("mle"), HashRing.build(2))
    vectors = _vectors(10)
    stream = KeygenStream()
    sharded.handle_keygen_batched(
        BatchedKeyGenRequest(sequence=2, hash_vectors=vectors),
        "host",
        stream=stream,
    )
    with pytest.raises(ValueError, match="stale keygen batch"):
        sharded.handle_keygen_batched(
            BatchedKeyGenRequest(sequence=1, hash_vectors=vectors),
            "host",
            stream=stream,
        )
    # Same-sequence retry is fine, and so is another stream from the
    # same client id (a second client behind the same host).
    sharded.handle_keygen_batched(
        BatchedKeyGenRequest(sequence=2, hash_vectors=vectors),
        "host",
        stream=stream,
    )
    sharded.handle_keygen_batched(
        BatchedKeyGenRequest(sequence=1, hash_vectors=vectors),
        "host",
        stream=KeygenStream(),
    )


def test_rate_limiter_enforced():
    limiter = KeyGenRateLimiter(chunks_per_second=1.0, burst_chunks=5.0)
    sharded = ShardedKeyManager(
        _front("mle"), HashRing.build(2), rate_limiter=limiter
    )
    with pytest.raises(RateLimitExceeded):
        sharded.handle_keygen(
            KeyGenRequest(hash_vectors=_vectors(50)), client_id="greedy"
        )


def test_durable_restore_resumes_stream(tmp_path):
    """Close and reopen: t, requests and the tune count survive."""
    vectors = _vectors(300)
    first = ShardedKeyManager(
        _front("fted", batch_size=64),
        HashRing.build(3, seed=2),
        state_root=tmp_path,
    )
    stream = KeygenStream()
    for index, start in enumerate(range(0, 200, 100)):
        first.handle_keygen_batched(
            BatchedKeyGenRequest(
                sequence=index + 1,
                hash_vectors=vectors[start : start + 100],
            ),
            "client-a",
            stream=stream,
        )
    saved_t = first.key_manager.t
    saved_requests = first.key_manager.stats.requests
    saved_tunes = first.key_manager.stats.batches_tuned
    first.close()

    # Uninterrupted twin: same first two batches, never restarted.
    twin = ShardedKeyManager(
        _front("fted", batch_size=64), HashRing.build(3, seed=2)
    )
    for start in range(0, 200, 100):
        twin.handle_keygen(
            KeyGenRequest(hash_vectors=vectors[start : start + 100])
        )

    second = ShardedKeyManager(_front("fted", batch_size=64), state_root=tmp_path)
    assert second.key_manager.t == saved_t
    assert second.key_manager.stats.requests == saved_requests
    assert second.key_manager.stats.batches_tuned == saved_tunes
    # Continuing the stream reproduces the uninterrupted run's *durable*
    # state: summed sketch counters, t, tune count, request count. (Seed
    # draws are not durable — the selection RNG restarts, exactly as in
    # the single key manager — the fail-safe direction.)
    second.handle_keygen_batched(
        BatchedKeyGenRequest(sequence=3, hash_vectors=vectors[200:300]),
        "client-a",
        stream=KeygenStream(),
    )
    twin_resp = twin.handle_keygen(
        KeyGenRequest(hash_vectors=vectors[200:300])
    )

    def summed_counters(service):
        total = None
        for observer in service.shard_key_managers().values():
            matrix = observer.sketch._counters
            total = matrix.copy() if total is None else total + matrix
        return total

    assert (summed_counters(second) == summed_counters(twin)).all()
    assert second.key_manager.t == twin.key_manager.t == twin_resp.current_t
    assert (
        second.key_manager.stats.requests == twin.key_manager.stats.requests
    )
    assert (
        second.key_manager.stats.batches_tuned
        == twin.key_manager.stats.batches_tuned
    )
    second.close()


def test_ring_persisted_and_mismatch_rejected(tmp_path):
    first = ShardedKeyManager(
        _front("mle"), HashRing.build(3, seed=7), state_root=tmp_path
    )
    first.close()
    assert (tmp_path / "ring.json").exists()
    # Reopen without a ring: the persisted one is picked up.
    second = ShardedKeyManager(_front("mle"), state_root=tmp_path)
    assert len(second.ring) == 3 and second.ring.seed == 7
    second.close()
    with pytest.raises(ValueError, match="ring config mismatch"):
        ShardedKeyManager(
            _front("mle"), HashRing.build(4, seed=7), state_root=tmp_path
        )


def test_ring_required_without_state():
    with pytest.raises(ValueError, match="required"):
        ShardedKeyManager(_front("mle"))


def test_stats_expose_shard_count():
    sharded = ShardedKeyManager(_front("bted"), HashRing.build(4))
    sharded.handle_keygen(KeyGenRequest(hash_vectors=_vectors(50)))
    stats = dict(sharded.stats())
    assert stats["shards"] == 4
    assert stats["requests"] == 50


class _ObserverTransport:
    """What a RemoteKmShardPool route talks to, minus the socket."""

    def __init__(self, service: ShardObserverService) -> None:
        self.service = service

    def observe(self, request):
        return self.service.handle_observe(request)

    def close(self) -> None:
        pass


def _observer_state(directory, mode):
    """A ``shards/<k>`` directory restored into a fresh observer."""
    service = ShardObserverService(
        0, make_shard_observer(_front(mode)), state_dir=directory
    )
    km = service.key_manager
    state = (
        km.sketch._counters.tobytes(),
        km.sketch.total,
        km.stats.requests,
    )
    service.close()
    return state


@pytest.mark.parametrize("mode", ["mle", "bted", "fted"])
def test_local_and_remote_observer_pools_agree(tmp_path, mode):
    """One front, two pools: same seeds, same front state, same
    ``shards/<k>`` contents. (An FTED observer's tracking map is the
    one thing that differs — only in-process mirrors keep one, following
    the front's tunes — and no front state is derived from a remote
    one.)"""
    ring = HashRing.build(3, seed=4)
    local = ShardedKeyManager(
        _front(mode, batch_size=64), ring, state_root=tmp_path / "local"
    )
    assert sorted(local.shard_key_managers()) == [0, 1, 2]

    fleet_ring = ring.with_endpoints(
        {k: f"127.0.0.1:{7200 + k}" for k in ring.shards}
    )
    services = {
        k: ShardObserverService(
            k,
            make_shard_observer(_front(mode, batch_size=64)),
            state_dir=tmp_path / "remote" / "shards" / str(k),
            ring_epoch=fleet_ring.epoch,
        )
        for k in ring.shards
    }
    remote = ShardedKeyManager(
        _front(mode, batch_size=64),
        fleet_ring,
        state_root=tmp_path / "remote",
        shard_pool=RemoteKmShardPool(
            fleet_ring,
            transport_factory=lambda address: _ObserverTransport(
                services[address[1] - 7200]
            ),
        ),
    )
    assert remote.shard_key_managers() == {}

    vectors = _vectors(300)
    local_stream, remote_stream = KeygenStream(), KeygenStream()
    for index, start in enumerate(range(0, 300, 100)):
        request = BatchedKeyGenRequest(
            sequence=index + 1, hash_vectors=vectors[start : start + 100]
        )
        got_local = local.handle_keygen_batched(
            request, "client-a", stream=local_stream
        )
        got_remote = remote.handle_keygen_batched(
            request, "client-a", stream=remote_stream
        )
        assert got_local == got_remote

    assert local.key_manager.t == remote.key_manager.t
    assert (
        local.key_manager.stats.requests
        == remote.key_manager.stats.requests
        == 300
    )
    assert (
        local.key_manager.stats.batches_tuned
        == remote.key_manager.stats.batches_tuned
    )
    assert local.routed_counts() == remote.routed_counts()
    assert dict(local.stats()) == dict(remote.stats())
    local_sum = sum(
        km.sketch._counters for km in local.shard_key_managers().values()
    )
    remote_sum = sum(s.key_manager.sketch._counters for s in services.values())
    assert (local_sum == remote_sum).all()

    local.close()
    remote.close()
    for service in services.values():
        service.close()
    for k in ring.shards:
        shard = f"shards/{k}"
        assert _observer_state(
            tmp_path / "local" / shard, mode
        ) == _observer_state(tmp_path / "remote" / shard, mode)


class _StubObserverTransport:
    """An observer process reduced to its reply: every estimate is 1."""

    def observe(self, request):
        return ShardObserveResponse(estimates=[1] * len(request.hash_vectors))

    def close(self) -> None:
        pass


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
def test_front_counts_each_served_seed_once(remote):
    """The front's ``requests`` pair counts the seeds it serves: N per N
    requests, whether the observers live elsewhere or in this process
    (which must not count them a second time)."""
    ring = HashRing.build(3, seed=1)
    pool = None
    if remote:
        ring = ring.with_endpoints(
            {k: f"127.0.0.1:{7200 + k}" for k in ring.shards}
        )
        pool = RemoteKmShardPool(
            ring, transport_factory=lambda _: _StubObserverTransport()
        )
    sharded = ShardedKeyManager(_front("fted"), ring, shard_pool=pool)
    sharded.handle_keygen(KeyGenRequest(hash_vectors=_vectors(30)))
    sharded.handle_keygen_batched(
        BatchedKeyGenRequest(sequence=1, hash_vectors=_vectors(20)),
        stream=KeygenStream(),
    )
    assert dict(sharded.stats())["requests"] == 50
    sharded.close()


def _front_log_tunes(path):
    records = []
    for _, key, value in WriteAheadLog.replay(path):
        assert key == b"tune"
        t, offset = decode_uvarint(value, 0)
        records.append((t, decode_uvarint(value, offset)[0]))
    return records


def test_front_log_has_one_record_per_tune(tmp_path):
    sharded = ShardedKeyManager(
        _front("fted", batch_size=37),
        HashRing.build(3, seed=2),
        state_root=tmp_path,
    )
    sharded.handle_keygen(KeyGenRequest(hash_vectors=_vectors(20)))
    # 20 + 100 requests cross the boundaries at 37, 74 and 111.
    sharded.handle_keygen(KeyGenRequest(hash_vectors=_vectors(100, seed=6)))
    history = sharded.key_manager.stats.t_history
    assert len(history) == 3
    assert _front_log_tunes(tmp_path / "front.log") == [
        (t, 37 * (i + 1)) for i, t in enumerate(history)
    ]
    sharded.close()


@pytest.mark.parametrize("close", [True, False], ids=["close", "crash"])
def test_in_process_front_restores_its_window_exactly(tmp_path, close):
    """Restarted mid-window, a front over in-process observers resumes
    the position in the batch and the tracked map, not just the state
    as of its last tune."""
    ring = HashRing.build(3, seed=2)
    first = ShardedKeyManager(
        _front("fted", batch_size=37), ring, state_root=tmp_path
    )
    for seed in (6, 7):
        first.handle_keygen(
            KeyGenRequest(hash_vectors=_vectors(50, distinct=40, seed=seed))
        )
    front = first.key_manager
    assert front.stats.batches_tuned == 2 and front._requests_in_batch == 26
    if close:
        first.close()

    second = ShardedKeyManager(
        _front("fted", batch_size=37), state_root=tmp_path
    )
    restored = second.key_manager
    assert restored.stats.requests == 100
    assert restored._requests_in_batch == 26
    assert restored._freq_by_identity == front._freq_by_identity
    assert restored.t == front.t
    second.close()


def test_served_observer_tracks_nothing(tmp_path):
    """`make_shard_observer(front)` — what `serve-shard --role km` runs —
    keeps no per-identity map (only the front's in-process observers
    do, and the front clears theirs), so its snapshots stay flat however
    many distinct identities pass through."""
    rng = random.Random(9)
    service = ShardObserverService(
        0,
        make_shard_observer(_front("fted", batch_size=8192)),
        state_dir=tmp_path,
    )
    overheads = []
    for round_index in range(3):
        for sub_batch in range(16):
            service.handle_observe(
                ShardObserveRequest(
                    client_id="front",
                    sequence=round_index * 16 + sub_batch,
                    hash_vectors=[
                        [rng.randrange(_WIDTH) for _ in range(_ROWS)]
                        for _ in range(64)
                    ],
                )
            )
        service.flush()
        assert len(service.key_manager._freq_by_identity) == 0
        counters = service.key_manager.sketch._counters
        blob = (tmp_path / "snapshot.bin").read_bytes()
        # Read back as a tracking key manager would: no map entries.
        _, restored, freq = km_state._decode_snapshot(
            blob, _ROWS, _WIDTH, fted=True
        )
        assert freq == {}
        assert (restored == counters).all()
        overheads.append(
            len(blob) - len(km_state._encode_counters(counters)[1])
        )
    # A snapshot is the sparse counters plus a fixed few bytes; 1,024
    # tracked identities a round used to add over 5 KiB each time.
    assert max(overheads) < 64
    assert service.key_manager.stats.requests == 3 * 16 * 64
    service.close()


def test_served_observer_drops_a_restored_tracking_map(tmp_path):
    """A ``shards/<k>`` written by an in-process (tracking) observer —
    or by an older served one — loads into a served observer with the
    same sketch and request count and no map, and stays that way."""
    front = _front("fted", batch_size=8192)
    writer = ShardObserverService(
        0, make_shard_observer(front, tracking=True), state_dir=tmp_path
    )
    request = ShardObserveRequest(
        client_id="front", sequence=1, hash_vectors=_vectors(200, distinct=50)
    )
    writer.handle_observe(request)
    assert len(writer.key_manager._freq_by_identity) == 50
    writer.close()
    old_size = (tmp_path / "snapshot.bin").stat().st_size

    served = ShardObserverService(
        0, make_shard_observer(front), state_dir=tmp_path
    )
    assert served.restore_report.snapshot_loaded
    assert served.key_manager._freq_by_identity == {}
    assert (
        served.key_manager.sketch._counters
        == writer.key_manager.sketch._counters
    ).all()
    assert served.key_manager.stats.requests == 200
    served.close()
    assert (tmp_path / "snapshot.bin").stat().st_size < old_size
