"""Batched sketch updates must replay the sequential semantics exactly.

``CountMinSketch.update_batch`` (DESIGN.md §16) promises result-identity
with per-item ``update`` calls — including within-batch collisions,
where a later item's estimate must see the increments of earlier items
that hashed to the same cells. The key-manager batch paths additionally
promise that FTED retune boundaries fire at the same request indices as
the sequential path, so ``t`` and every seed decision match bit-for-bit.
"""

import random

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.murmur3 import BATCH_MIN, short_hashes, short_hashes_batch
from repro.sketch.countmin import CountMinSketch
from repro.tedstore.fleet import RemoteKmShardPool
from repro.tedstore.messages import KeyGenRequest
from repro.tedstore.ring import HashRing
from repro.tedstore.sharding import (
    ShardObserverService,
    ShardedKeyManager,
    make_shard_observer,
)


def _collision_heavy_batch(rng, n, rows=4, width=64, distinct=12):
    # A small pool over a small width forces many exact repeats and
    # many partial (per-cell) collisions inside one batch.
    pool = [
        [rng.randrange(width) for _ in range(rows)] for _ in range(distinct)
    ]
    return [list(rng.choice(pool)) for _ in range(n)]


def test_update_batch_matches_sequential_plain():
    rng = random.Random(11)
    batch = _collision_heavy_batch(rng, 400)
    batched = CountMinSketch(rows=4, width=64)
    sequential = CountMinSketch(rows=4, width=64)
    est_batched = batched.update_batch(batch)
    est_sequential = [sequential.update(item) for item in batch]
    assert est_batched == est_sequential
    assert (batched._counters == sequential._counters).all()
    assert batched.total == sequential.total


def test_update_batch_conservative_falls_back_exactly():
    rng = random.Random(13)
    batch = _collision_heavy_batch(rng, 200)
    batched = CountMinSketch(rows=4, width=64, conservative=True)
    sequential = CountMinSketch(rows=4, width=64, conservative=True)
    est_batched = batched.update_batch(batch)
    est_sequential = [sequential.update(item) for item in batch]
    assert est_batched == est_sequential
    assert (batched._counters == sequential._counters).all()


def test_update_batch_empty_and_shape_checks():
    sketch = CountMinSketch(rows=4, width=64)
    assert sketch.update_batch([]) == []
    try:
        sketch.update_batch([[1, 2, 3]])
    except ValueError:
        pass
    else:
        raise AssertionError("wrong-arity item was accepted")


def test_ragged_batch_fails_with_the_sketch_rule():
    sketch = CountMinSketch(rows=4, width=64)
    sketch.update_batch([[1, 2, 3, 4]])
    before = (sketch._counters.copy(), sketch.total)
    with pytest.raises(ValueError, match="expected 4 short hashes per item"):
        sketch.update_batch([[1, 2, 3, 4], [1, 2, 3], [5, 6, 7, 8]])
    assert (sketch._counters == before[0]).all()
    assert sketch.total == before[1]


@pytest.mark.parametrize("count", [1, BATCH_MIN - 1, BATCH_MIN, 257])
@pytest.mark.parametrize("length", [16, 32])
def test_batched_short_hashes_count_like_hash_item(count, length):
    """The client's batched short hashes and the sketch's own
    ``hash_item`` convenience path count the same cells."""
    rng = random.Random(count * length)
    pool = [rng.randbytes(length) for _ in range(max(1, count // 3))]
    items = [rng.choice(pool) for _ in range(count)]
    batched = CountMinSketch(rows=4, width=1024)
    scalar = CountMinSketch(rows=4, width=1024)
    estimates = batched.update_batch(short_hashes_batch(items, 4, 1024))
    assert estimates == [scalar.update_item(item) for item in items]
    assert (batched._counters == scalar._counters).all()
    assert short_hashes_batch(items, 4, 1024) == [
        short_hashes(item, 4, 1024) for item in items
    ]


def _key_manager(**kwargs):
    return TedKeyManager(secret=b"kappa", rng=random.Random(99), **kwargs)


def _assert_same_tuning_state(km_fast, km_ref, counters=None):
    """``counters``: the sketch that counted for ``km_fast`` when it is
    not its own (a sharded front's summed shard sketches)."""
    if counters is None:
        counters = km_fast.sketch._counters
    assert km_fast.t == km_ref.t
    assert km_fast.stats.requests == km_ref.stats.requests
    assert km_fast.stats.t_history == km_ref.stats.t_history
    assert (counters == km_ref.sketch._counters).all()
    assert km_fast._freq_by_identity == km_ref._freq_by_identity
    assert km_fast._requests_in_batch == km_ref._requests_in_batch


def _boundary_batches():
    # Batch sizes straddle the FTED retune boundary (37): mid-call
    # retunes (the 100-key call crosses two), exact-boundary calls, and
    # empty calls all must agree with one scalar ``generate_seed`` call
    # per request.
    rng = random.Random(31)
    return [
        _collision_heavy_batch(rng, n, width=512, distinct=40)
        for n in (1, 36, 38, 0, 100, 37)
    ]


_MODES = {"bted": dict(t=4), "fted": dict(blowup_factor=1.5, batch_size=37)}


def test_generate_seeds_parity_bted_and_fted():
    for kwargs in _MODES.values():
        km_fast, km_ref = _key_manager(**kwargs), _key_manager(**kwargs)
        for batch in _boundary_batches():
            assert km_fast.generate_seeds(batch) == [
                km_ref.generate_seed(hashes) for hashes in batch
            ]
        _assert_same_tuning_state(km_fast, km_ref)


class _ObserverTransport:
    """A ``RemoteKmShardPool`` route's peer, minus the socket."""

    def __init__(self, service):
        self.service = service

    def observe(self, request):
        return self.service.handle_observe(request)

    def close(self):
        pass


@pytest.mark.parametrize("pool", ["local", "remote"])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_sharded_front_parity(mode, pool):
    """The sharded front — observers count, the front selects — applies
    the same rule as the scalar reference, over either observer pool."""
    kwargs = dict(_MODES[mode], sketch_width=512)
    ring = HashRing.build(3, seed=1)
    if pool == "local":
        front = ShardedKeyManager(_key_manager(**kwargs), ring)
        observers = list(front.shard_key_managers().values())
    else:
        ring = ring.with_endpoints(
            {k: f"127.0.0.1:{7200 + k}" for k in ring.shards}
        )
        services = {
            k: ShardObserverService(
                k, make_shard_observer(_key_manager(**kwargs))
            )
            for k in ring.shards
        }
        front = ShardedKeyManager(
            _key_manager(**kwargs),
            ring,
            shard_pool=RemoteKmShardPool(
                ring,
                transport_factory=lambda address: _ObserverTransport(
                    services[address[1] - 7200]
                ),
            ),
        )
        observers = [service.key_manager for service in services.values()]
    km_ref = _key_manager(**kwargs)
    for batch in _boundary_batches():
        reply = front.handle_keygen(KeyGenRequest(hash_vectors=batch))
        assert reply.seeds == [km_ref.generate_seed(h) for h in batch]
        assert reply.current_t == km_ref.t
    if mode == "fted":
        assert len(km_ref.stats.t_history) >= 4
    _assert_same_tuning_state(
        front.key_manager,
        km_ref,
        counters=sum(km.sketch._counters for km in observers),
    )


def test_observe_batch_parity_replays_retunes():
    """Replay mutates exactly what per-request ``generate_seed`` does
    (minus seed draws, which touch only the selection RNG)."""
    rng = random.Random(37)
    batches = [
        _collision_heavy_batch(rng, n, width=512, distinct=40)
        for n in (80, 37, 5)
    ]
    kwargs = dict(blowup_factor=1.5, batch_size=37)
    km_fast, km_ref = _key_manager(**kwargs), _key_manager(**kwargs)
    for batch in batches:
        km_fast.observe_batch(batch)
        for hashes in batch:
            km_ref.generate_seed(hashes)
    _assert_same_tuning_state(km_fast, km_ref)


def test_estimate_batch_parity():
    """Observer shards (no retune): estimates are the scalar sketch
    updates', and the tracked frequency map follows them."""
    rng = random.Random(41)
    batches = [
        _collision_heavy_batch(rng, n, width=512, distinct=40)
        for n in (0, 50, 13)
    ]
    km = _key_manager(blowup_factor=1.5)
    reference = CountMinSketch(rows=km.sketch.rows, width=km.sketch.width)
    tracked = {}
    for batch in batches:
        expected = [reference.update(hashes) for hashes in batch]
        tracked.update((tuple(h), f) for h, f in zip(batch, expected))
        assert km.estimate_batch(batch) == expected
    assert (km.sketch._counters == reference._counters).all()
    assert km._freq_by_identity == tracked
    assert km.stats.requests == sum(len(batch) for batch in batches)
