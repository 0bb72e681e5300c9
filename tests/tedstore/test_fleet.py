"""Fleet routing: per-shard breakers, fail-fast degradation, no partial state."""

import time

import pytest

from repro.storage.dedup import RingEpochRegressionError
from repro.tedstore import messages as m
from repro.tedstore.fleet import (
    MultiShardProvider,
    RemoteKmShardPool,
    ShardRouteSet,
)
from repro.tedstore.health import OPEN, ShardUnavailableError
from repro.tedstore.ring import HashRing


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeShardTransport:
    """In-memory provider shard recording every call it receives."""

    def __init__(self) -> None:
        self.chunks = {}
        self.recipes = {}
        self.calls = []
        self.fail = False
        self.closed = False

    def _gate(self, op):
        if self.fail:
            raise ConnectionError(f"shard down during {op}")
        self.calls.append(op)

    def put_chunks(self, request):
        self._gate("put_chunks")
        stored = duplicates = 0
        for fingerprint, data in request.chunks:
            if fingerprint in self.chunks:
                duplicates += 1
            else:
                self.chunks[fingerprint] = data
                stored += 1
        return m.PutChunksResponse(stored=stored, duplicates=duplicates)

    def get_chunks(self, request):
        self._gate("get_chunks")
        return m.Chunks(
            chunks=[self.chunks[fp] for fp in request.fingerprints]
        )

    def put_recipes(self, request):
        self._gate("put_recipes")
        self.recipes[request.file_name] = request

    def get_recipes(self, request):
        self._gate("get_recipes")
        return self.recipes[request.file_name]

    def stats(self):
        self._gate("stats")
        return [("unique_chunks", len(self.chunks))]

    def close(self):
        self.closed = True


def _fleet(shards=3, **kwargs):
    ring = HashRing.build(shards).with_endpoints(
        {k: f"127.0.0.1:{7000 + k}" for k in range(shards)}
    )
    fakes = {}

    def factory(address):
        # Persistent per shard: a route rebuilds its transport after a
        # wire failure, which models reconnecting to the same process.
        return fakes.setdefault(address[1] - 7000, FakeShardTransport())

    defaults = dict(
        transport_factory=factory,
        breaker_failures=2,
        clock=FakeClock(),
    )
    defaults.update(kwargs)
    provider = MultiShardProvider(ring, **defaults)
    # Touch every route once so each fake exists for the tests to poke.
    provider.put_chunks(
        m.PutChunks(
            chunks=[
                (b"warm-%d" % i, b"x") for i in range(shards * 8)
            ]
        )
    )
    assert set(fakes) == set(range(shards))
    return provider, fakes


def _batch(count, prefix=b"fp"):
    return m.PutChunks(
        chunks=[
            (prefix + str(i).encode(), b"data-" + str(i).encode())
            for i in range(count)
        ]
    )


class TestHealthyRouting:
    def test_round_trip_across_shards(self):
        provider, fakes = _fleet()
        request = _batch(40)
        response = provider.put_chunks(request)
        assert response.stored == 40
        fingerprints = [fp for fp, _ in request.chunks]
        reply = provider.get_chunks(m.GetChunks(fingerprints=fingerprints))
        assert reply.chunks == [data for _, data in request.chunks]
        # Every shard took part and holds only its ring-owned slice.
        per_shard = [len(f.chunks) for f in fakes.values()]
        assert sum(per_shard) == 40 + 24  # batch + warm-up chunks
        assert all(count > 0 for count in per_shard)

    def test_recipes_live_in_one_failure_domain(self):
        provider, fakes = _fleet()
        request = m.PutRecipes(
            file_name="f1",
            sealed_file_recipe=b"sealed-fr",
            sealed_key_recipe=b"sealed-kr",
        )
        provider.put_recipes(request)
        holders = [s for s, f in fakes.items() if "f1" in f.recipes]
        assert len(holders) == 1
        assert provider.get_recipes(
            m.GetRecipes(file_name="f1")
        ).sealed_file_recipe == b"sealed-fr"

    def test_stats_sum_reachable_shards(self):
        provider, fakes = _fleet(shards=2)
        stats = dict(provider.stats())
        assert stats["fleet_shards"] == 2
        assert stats["fleet_shards_reachable"] == 2
        assert stats["unique_chunks"] == sum(
            len(f.chunks) for f in fakes.values()
        )


class TestDegradedMode:
    def test_midflight_failure_surfaces_typed_error(self):
        provider, fakes = _fleet()
        fakes[0].fail = True
        with pytest.raises(ShardUnavailableError) as excinfo:
            provider.put_chunks(_batch(40))
        assert excinfo.value.side == "provider"
        assert excinfo.value.shard == 0

    def test_open_breaker_fails_fast_without_partial_state(self):
        """Differential gate: a batch rejected at admission must leave
        byte-identical shard state to never having been sent at all."""
        provider, fakes = _fleet()
        fakes[0].fail = True
        for _ in range(2):  # trip shard 0's breaker (threshold 2)
            with pytest.raises(ShardUnavailableError):
                provider.put_chunks(_batch(40))
        assert provider.shard_health()[0] == OPEN

        snapshots = {s: dict(f.chunks) for s, f in fakes.items()}
        call_counts = {s: len(f.calls) for s, f in fakes.items()}
        with pytest.raises(ShardUnavailableError):
            provider.put_chunks(_batch(40, prefix=b"new"))
        # Healthy shards saw no sub-batch: admission runs for every
        # target shard before any bytes move.
        assert {s: dict(f.chunks) for s, f in fakes.items()} == snapshots
        assert {s: len(f.calls) for s, f in fakes.items()} == call_counts

    def test_healthy_shard_ops_proceed_during_an_outage(self):
        provider, fakes = _fleet()
        fakes[1].fail = True
        for _ in range(2):
            with pytest.raises(ShardUnavailableError):
                provider.put_chunks(_batch(40))
        # A batch whose chunks all land on healthy shards still works.
        healthy_only = m.PutChunks(
            chunks=[
                (fp, data)
                for fp, data in _batch(60, prefix=b"h").chunks
                if provider.ring.shard_for_key(fp) != 1
            ]
        )
        response = provider.put_chunks(healthy_only)
        assert response.stored == len(healthy_only.chunks)

    def test_recovered_shard_rejoins_after_the_reset_timeout(self):
        clock = FakeClock()
        provider, fakes = _fleet(clock=clock, breaker_reset=5.0)
        fakes[0].fail = True
        for _ in range(2):
            with pytest.raises(ShardUnavailableError):
                provider.put_chunks(_batch(40))
        fakes[0].fail = False  # the shard restarts, state recovered
        clock.now = 5.0  # reset timeout elapses -> half-open trial
        response = provider.put_chunks(_batch(40))
        assert response.duplicates + response.stored == 40
        assert provider.shard_health()[0] == "closed"

    def test_stats_skip_unreachable_shards(self):
        provider, fakes = _fleet(shards=2)
        fakes[0].fail = True
        stats = dict(provider.stats())
        assert stats["fleet_shards_reachable"] == 1
        assert stats["unique_chunks"] == len(fakes[1].chunks)


    @pytest.mark.parametrize(
        "served",
        [
            KeyError("unknown fingerprint"),
            FileNotFoundError("no such file"),
            RuntimeError("remote error: quota exceeded"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_served_error_on_the_trial_call_releases_the_slot(self, served):
        """A restarted shard that answers its half-open trial with a miss
        (it lost an unsealed chunk) answered — it must rejoin, not stay
        locked out behind a trial slot nobody will ever release."""
        clock = FakeClock()
        provider, fakes = _fleet(
            shards=1, clock=clock, breaker_failures=1, breaker_reset=5.0
        )
        fakes[0].fail = True
        with pytest.raises(ShardUnavailableError):
            provider.put_chunks(_batch(4))
        assert provider.shard_health()[0] == OPEN
        fakes[0].fail = False
        clock.now = 5.0  # half-open: the next call is the trial

        def answer_with_error(request):
            raise served

        fakes[0].get_recipes = answer_with_error
        with pytest.raises(type(served)) as excinfo:
            provider.get_recipes(m.GetRecipes(file_name="lost"))
        assert excinfo.value is served  # passed through untouched
        assert provider.shard_health()[0] == "closed"
        assert provider.put_chunks(_batch(4)).stored == 4
        clock.now = 605.0  # and it stays usable
        assert provider.put_chunks(_batch(4)).duplicates == 4


class TestEpochGuard:
    def test_lower_peer_epoch_is_a_typed_error(self):
        ring = HashRing(
            [0, 1], epoch=3, endpoints={0: "h:1", 1: "h:2"}
        )
        provider = MultiShardProvider(
            ring, transport_factory=lambda address: FakeShardTransport()
        )
        with pytest.raises(RingEpochRegressionError) as excinfo:
            provider.check_peer_epoch(m.Pong(role="provider", epoch=1))
        assert (excinfo.value.reported, excinfo.value.current) == (1, 3)
        provider.check_peer_epoch(m.Pong(role="provider", epoch=3))
        provider.check_peer_epoch(m.Pong(role="provider", epoch=9))

    def test_heartbeat_probe_fails_a_stale_peer(self, monkeypatch):
        """The PONG's epoch is checked where it arrives: a shard serving
        an older ring fails the probe, and the breaker says why."""
        probed = []

        def fake_probe(address, timeout):
            probed.append(address)
            # Shard 0 still serves the pre-reshard ring; shard 1 is current.
            return m.Pong(
                role="provider",
                shard=address[1] - 7000,
                epoch=1 if address[1] == 7000 else 3,
            )

        monkeypatch.setattr("repro.tedstore.fleet.probe_endpoint", fake_probe)
        ring = HashRing(
            [0, 1],
            epoch=3,
            endpoints={0: "127.0.0.1:7000", 1: "127.0.0.1:7001"},
        )
        provider = MultiShardProvider(
            ring,
            transport_factory=lambda address: FakeShardTransport(),
            breaker_failures=1,
            heartbeat_interval=0.005,
        )
        try:
            deadline = time.monotonic() + 5.0
            while (
                provider.shard_health()[0] != OPEN or len(probed) < 4
            ) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert provider.shard_health() == {0: OPEN, 1: "closed"}
            with pytest.raises(ShardUnavailableError) as excinfo:
                provider.routes()[0].call(lambda t: t.stats())
            assert str(RingEpochRegressionError(1, 3)) in excinfo.value.reason
        finally:
            provider.close()


class TestRouteBuilding:
    def test_missing_endpoints_rejected(self):
        ring = HashRing.build(3).with_endpoints({0: "h:1"})
        with pytest.raises(ValueError, match="no endpoint"):
            ShardRouteSet("provider", ring, lambda address: None)

    def test_close_stops_routes_and_transports(self):
        provider, fakes = _fleet()
        provider.close()
        assert all(f.closed for f in fakes.values())


class FakeObserver:
    def __init__(self, estimates=None, fail=False):
        self.estimates = estimates
        self.fail = fail
        self.seen = []

    def observe(self, request):
        if self.fail:
            raise ConnectionError("observer down")
        self.seen.append((request.client_id, request.sequence))
        estimates = (
            self.estimates
            if self.estimates is not None
            else [1] * len(request.hash_vectors)
        )
        return m.ShardObserveResponse(estimates=estimates)

    def close(self):
        pass


class TestKmShardPool:
    def _pool(self, observers):
        ring = HashRing.build(len(observers)).with_endpoints(
            {k: f"127.0.0.1:{7100 + k}" for k in range(len(observers))}
        )
        return RemoteKmShardPool(
            ring,
            transport_factory=lambda address: observers[address[1] - 7100],
            breaker_failures=1,
            clock=FakeClock(),
        )

    def test_observe_returns_estimates(self):
        observers = {0: FakeObserver(), 1: FakeObserver()}
        pool = self._pool(observers)
        estimates = pool.observe(1, "client-a", 7, [[1, 2], [3, 4]])
        assert estimates == [1, 1]
        assert observers[1].seen == [("client-a", 7)]

    def test_dead_observer_is_a_typed_km_error(self):
        pool = self._pool({0: FakeObserver(fail=True)})
        with pytest.raises(ShardUnavailableError) as excinfo:
            pool.observe(0, "client-a", 0, [[1, 2]])
        assert excinfo.value.side == "km"
        assert pool.shard_health()[0] == OPEN  # threshold 1: fails fast now

    def test_estimate_count_mismatch_is_a_protocol_error(self):
        pool = self._pool({0: FakeObserver(estimates=[5])})
        with pytest.raises(m.ProtocolError, match="estimates"):
            pool.observe(0, "client-a", 0, [[1, 2], [3, 4]])
