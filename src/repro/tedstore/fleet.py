"""Multi-process shard deployment: per-shard routes with failure domains.

DESIGN.md §17. A fleet is N ``repro serve-shard`` processes — provider
leaves over ``<root>/shards/<k>/`` and KM sketch observers over
``<km_root>/shards/<k>/`` — named by the ring's endpoint map. This
module is the client side. Every shard gets its own **route**
(:class:`ShardRoute`: a lazy per-shard transport under a
:class:`~repro.tedstore.health.CircuitBreaker`), all of a client's
routes live in one :class:`ShardRouteSet` (construction, admission,
guarded call, heartbeat probe with its ring-epoch check, health,
teardown), and the two fleet clients — :class:`MultiShardProvider` and
:class:`RemoteKmShardPool` — hold one each and route their batches
through the shared :class:`~repro.storage.sharded.ShardFanout`. One
dead shard is one open breaker, not a hung pipeline.

Semantics under failure (graceful degradation):

* Operations touching only healthy shards proceed normally.
* An operation routed at an open breaker fails **fast** with
  :class:`~repro.tedstore.health.ShardUnavailableError` — for
  multi-shard batches (chunks and keygen alike) the fan-out admits
  *every* target shard before any bytes are sent, so a batch that
  cannot fully land does not scatter sub-batches at healthy shards
  first.
* A mid-flight failure (breaker was closed, shard died under the
  call) surfaces the same typed error after the per-shard retry
  policy is exhausted. Per-shard acks keep such a batch shard-local:
  the sub-batches that did land are idempotent puts a retry replays
  byte-identically (the provider dedups, the observer's durable log
  replays by batch id), which the differential chaos gate pins.
* Only wire failures count against a breaker: a shard that *answers* —
  with a result, a typed miss or a served error — is healthy.
* A restarted shard recovers its state through the §12 crash-recovery
  path and rejoins on the first successful probe (or answered trial
  call); a shard serving an older ring epoch fails its probes.
"""

from __future__ import annotations

import functools
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.storage.dedup import RingEpochRegressionError
from repro.storage.sharded import SHARDS_DIRNAME, ShardFanout
from repro.tedstore import messages as m
from repro.tedstore.health import (
    CircuitBreaker,
    ShardHealthMonitor,
    ShardUnavailableError,
)
from repro.tedstore.network import (
    RemoteProvider,
    RemoteShardObserver,
    parse_endpoint,
    probe_endpoint,
)
from repro.tedstore.inprocess import LocalProvider
from repro.tedstore.provider import DEFAULT_TENANT, ProviderService
from repro.tedstore.retry import RetryPolicy
from repro.tedstore.ring import HashRing, load_ring, recipe_key, store_ring

#: Wire failures that count against a shard's breaker. Anything else a
#: call raises — RuntimeError (a served MSG_ERROR), KeyError or
#: FileNotFoundError (typed misses; the latter is an OSError by
#: inheritance only) — means the shard answered: wrong is not down.
_ROUTE_FAILURES = (ConnectionError, TimeoutError, OSError, m.ProtocolError)


class ShardRoute:
    """One shard's guarded, lazily-connected transport.

    The transport is built on first use (and rebuilt after any wire
    failure), so a fleet client can be constructed while some shards
    are still starting — their breakers simply open until the first
    successful call or probe.
    """

    def __init__(
        self,
        side: str,
        shard_id: int,
        endpoint: str,
        factory: Callable[[Tuple[str, int]], object],
        breaker: CircuitBreaker,
        probe_timeout: float = 2.0,
    ) -> None:
        self.side = side
        self.shard_id = int(shard_id)
        self.endpoint = endpoint
        self.address = parse_endpoint(endpoint)
        self._factory = factory
        self.breaker = breaker
        self._probe_timeout = probe_timeout
        self._transport: Optional[object] = None
        self._lock = threading.Lock()

    def _get_transport(self):
        with self._lock:
            if self._transport is None:
                self._transport = self._factory(self.address)
            return self._transport

    def _drop_transport(self) -> None:
        with self._lock:
            transport, self._transport = self._transport, None
        if transport is not None:
            try:
                transport.close()
            except Exception:
                pass  # already broken; nothing to salvage

    def call(self, fn: Callable[[object], object]):
        """Run ``fn(transport)`` under the breaker.

        Wire failures (after the transport's own retry policy) count
        toward the breaker threshold and re-raise as
        :class:`ShardUnavailableError`. Any other outcome — a result or
        a served error — is an answer, and an answering shard is a
        healthy shard: success is recorded (releasing the half-open
        trial slot ``admit`` claimed) before a served error passes on.
        """
        self.breaker.admit()
        try:
            result = fn(self._get_transport())
        except Exception as exc:
            if isinstance(exc, FileNotFoundError) or not isinstance(
                exc, _ROUTE_FAILURES
            ):
                self.breaker.record_success()
                raise
            reason = f"{type(exc).__name__}: {exc}"
            self.breaker.record_failure(reason)
            self._drop_transport()
            raise ShardUnavailableError(
                self.side, self.shard_id, reason
            ) from exc
        self.breaker.record_success()
        return result

    def probe(self) -> m.Pong:
        """One PING on a dedicated short-lived socket."""
        return probe_endpoint(self.address, timeout=self._probe_timeout)

    def close(self) -> None:
        self._drop_transport()


class ShardRouteSet:
    """A guarded :class:`ShardRoute` per ring shard, plus their heartbeat.

    What :class:`MultiShardProvider` and :class:`RemoteKmShardPool`
    both hold. ``factory`` maps ``(host, port)`` to one shard's
    transport; the ring must publish an endpoint for every shard.
    ``heartbeat_interval <= 0`` starts no monitor thread (breakers
    still learn from calls; tests drive probes by hand).
    """

    def __init__(
        self,
        side: str,
        ring: HashRing,
        factory: Callable[[Tuple[str, int]], object],
        *,
        breaker_failures: int = 3,
        breaker_reset: float = 5.0,
        probe_timeout: float = 2.0,
        heartbeat_interval: float = 0.0,
        clock=None,
    ) -> None:
        missing = [s for s in ring.shards if ring.endpoint_for(s) is None]
        if missing:
            raise ValueError(
                f"ring publishes no endpoint for shards {missing}; a "
                "multi-process deployment needs every shard mapped"
            )
        self.ring = ring
        clock_kwargs = {} if clock is None else {"clock": clock}
        self._routes: Dict[int, ShardRoute] = {
            shard_id: ShardRoute(
                side,
                shard_id,
                ring.endpoint_for(shard_id),
                factory,
                CircuitBreaker(
                    side,
                    shard_id,
                    failure_threshold=breaker_failures,
                    reset_timeout=breaker_reset,
                    **clock_kwargs,
                ),
                probe_timeout=probe_timeout,
            )
            for shard_id in ring.shards
        }
        self._monitor: Optional[ShardHealthMonitor] = None
        if heartbeat_interval > 0:
            self._monitor = ShardHealthMonitor(
                probes={
                    s: functools.partial(self.probe, s) for s in self._routes
                },
                breakers={s: r.breaker for s, r in self._routes.items()},
                interval=heartbeat_interval,
            ).start()

    def admit(self, shard_id: int) -> None:
        """Batch pre-admission: fail fast if the shard's breaker is open.

        Non-consuming (:meth:`CircuitBreaker.check`): the sub-batch that
        follows admits for real in :meth:`call`, and claiming the
        half-open trial slot here would lock a recovering shard out of
        exactly the traffic that closes its breaker.
        """
        self._routes[shard_id].breaker.check()

    def call(self, shard_id: int, fn: Callable[[object], object]):
        return self._routes[shard_id].call(fn)

    def check_epoch(self, pong: m.Pong) -> None:
        """Reject a PONG from a shard serving an older ring than ours.

        Raises :class:`~repro.storage.dedup.RingEpochRegressionError`
        — typed, and deliberately *not* a cache invalidation: the
        stale peer is wrong, not this client's view.
        """
        if pong.epoch < self.ring.epoch:
            raise RingEpochRegressionError(pong.epoch, self.ring.epoch)

    def probe(self, shard_id: int) -> m.Pong:
        """The heartbeat probe: PING, then check the PONG's ring epoch.

        A shard serving an older ring would place keys differently, so
        a stale PONG is a *failed* probe whose error — the breaker's
        recorded reason — is the typed ring-epoch regression.
        """
        pong = self._routes[shard_id].probe()
        self.check_epoch(pong)
        return pong

    def shard_health(self) -> Dict[int, str]:
        """``shard id -> breaker state`` for status surfaces."""
        return {
            shard: route.breaker.state
            for shard, route in sorted(self._routes.items())
        }

    def routes(self) -> Dict[int, ShardRoute]:
        return dict(self._routes)

    def close(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()
        for route in self._routes.values():
            route.close()


class MultiShardProvider:
    """Provider transport over per-shard processes (DESIGN.md §17).

    Drop-in for :class:`~repro.tedstore.network.RemoteProvider` from
    the client pipeline's point of view: same ``put_chunks`` /
    ``get_chunks`` / recipe / ``ring_epoch`` surface. Chunks route by
    cipher-fingerprint ring placement to the shard's own provider
    process; recipes route by file name over the same ring, so a
    file's recipes live in exactly one failure domain and survive the
    loss of every other shard.

    Args:
        ring: placement **with** a full endpoint map.
        tenant / auth_token: per-connection HELLO binding, handed to
            every shard's transport.
        retry_policy: per-shard transport retry policy (absorbs blips
            *within* one call; the breaker counts whole-call failures).
        data_connections: per-shard data-connection pool size.
        breaker_failures / breaker_reset: circuit-breaker tuning.
        heartbeat_interval: seconds between health probes; ``0``
            disables the monitor thread (tests drive probes manually).
        io_timeout / connect_timeout: per-shard socket budgets — the
            worst-case client stall on a silently-paused shard is one
            ``io_timeout`` per retry attempt until the breaker opens.
    """

    def __init__(
        self,
        ring: HashRing,
        *,
        tenant: str = DEFAULT_TENANT,
        auth_token: bytes = b"",
        retry_policy: Optional[RetryPolicy] = None,
        data_connections: int = 0,
        breaker_failures: int = 3,
        breaker_reset: float = 5.0,
        heartbeat_interval: float = 0.0,
        probe_timeout: float = 2.0,
        io_timeout: float = 60.0,
        connect_timeout: float = 10.0,
        transport_factory: Optional[Callable] = None,
        clock=None,
    ) -> None:
        self.ring = ring
        self.tenant = tenant or DEFAULT_TENANT

        def factory(address: Tuple[str, int]):
            return RemoteProvider(
                address,
                retry_policy=retry_policy,
                data_connections=data_connections,
                tenant=self.tenant,
                auth_token=auth_token,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
            )

        self._routes = ShardRouteSet(
            "provider",
            ring,
            transport_factory or factory,
            breaker_failures=breaker_failures,
            breaker_reset=breaker_reset,
            probe_timeout=probe_timeout,
            heartbeat_interval=heartbeat_interval,
            clock=clock,
        )
        self._fanout = ShardFanout("client", ring.shards)

    # -- placement helpers -------------------------------------------------

    def _recipe_shard(self, file_name: str) -> int:
        return self.ring.shard_for_key(recipe_key(file_name.encode("utf-8")))

    def ring_epoch(self) -> int:
        return self.ring.epoch

    def check_peer_epoch(self, pong: m.Pong) -> None:
        """:meth:`ShardRouteSet.check_epoch` for a :meth:`ping_all` PONG
        (heartbeat probes apply it themselves)."""
        self._routes.check_epoch(pong)

    # -- provider surface --------------------------------------------------

    def _route_batch(self, fingerprints, items, op):
        """One fan-out: ``op(transport, sub_items)`` per owning shard."""
        return self._fanout.run(
            [self.ring.shard_for_key(fp) for fp in fingerprints],
            items,
            lambda shard, sub: self._routes.call(shard, lambda t: op(t, sub)),
            admit=self._routes.admit,
        )

    def put_chunks(self, request: m.PutChunks) -> m.PutChunksResponse:
        routed = self._route_batch(
            [fp for fp, _ in request.chunks],
            request.chunks,
            lambda t, sub: t.put_chunks(m.PutChunks(chunks=sub)),
        )
        return m.PutChunksResponse(
            stored=sum(response.stored for _, response in routed),
            duplicates=sum(response.duplicates for _, response in routed),
        )

    def get_chunks(self, request: m.GetChunks) -> m.Chunks:
        fingerprints = request.fingerprints
        routed = self._route_batch(
            fingerprints,
            fingerprints,
            lambda t, sub: t.get_chunks(m.GetChunks(fingerprints=sub)).chunks,
        )
        return m.Chunks(
            chunks=ShardFanout.scatter(routed, len(fingerprints))
        )

    def put_recipes(self, request: m.PutRecipes) -> None:
        shard = self._recipe_shard(request.file_name)
        self._routes.call(shard, lambda t: t.put_recipes(request))

    def get_recipes(self, request: m.GetRecipes) -> m.PutRecipes:
        shard = self._recipe_shard(request.file_name)
        return self._routes.call(shard, lambda t: t.get_recipes(request))

    # -- health / reporting ------------------------------------------------

    def ping_all(self) -> Dict[int, m.Pong]:
        """PING every shard once; raises nothing, skips the dead.

        A raw diagnostic: stale epochs included, breakers untouched.
        """
        pongs: Dict[int, m.Pong] = {}
        for shard, route in sorted(self._routes.routes().items()):
            try:
                pongs[shard] = route.probe()
            except Exception:
                continue
        return pongs

    def shard_health(self) -> Dict[int, str]:
        return self._routes.shard_health()

    def routes(self) -> Dict[int, ShardRoute]:
        return self._routes.routes()

    def routed_counts(self) -> Dict[int, int]:
        return self._fanout.counts

    def stats(self) -> List[Tuple[str, int]]:
        """Summed numeric stats over reachable shards, plus health."""
        totals: Dict[str, float] = {}
        reachable = 0
        for shard in self.ring.shards:
            try:
                pairs = self._routes.call(shard, lambda t: t.stats())
            except ShardUnavailableError:
                continue
            reachable += 1
            for name, value in pairs:
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
        pairs = [
            (name, int(v) if float(v).is_integer() else v)
            for name, v in sorted(totals.items())
        ]
        pairs.append(("fleet_shards", len(self.ring.shards)))
        pairs.append(("fleet_shards_reachable", reachable))
        return pairs

    def wire_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for route in self._routes.routes().values():
            transport = route._transport
            if transport is None:
                continue
            for name, value in getattr(
                transport, "wire_stats", dict
            )().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def close(self) -> None:
        self._routes.close()


class LocalFleet:
    """A sharded store root served in this process, one service per leaf.

    The in-process counterpart of N ``repro serve-shard --role
    provider`` processes over ``root``: a :class:`ProviderService` per
    ``shards/<k>/`` leaf, reached through :class:`MultiShardProvider`
    routes whose transports are :class:`LocalProvider` leaves, so the
    fleet client's routing is the one under test. A persisted
    ``ring.json`` wins; ``ring`` only bootstraps a fresh root (and is
    written there). ``service_options`` go to every leaf service.

    Raises:
        RuntimeError: ``root`` holds an unfinished reshard.
    """

    def __init__(
        self, root, ring: Optional[HashRing] = None, **service_options
    ) -> None:
        from repro.tedstore.reshard import refuse_pending_reshard

        root = Path(root)
        ring_path = root / "ring.json"
        refuse_pending_reshard(root)
        if ring is None or ring_path.exists():
            ring = load_ring(ring_path)
        else:
            root.mkdir(parents=True, exist_ok=True)
            store_ring(ring_path, ring)
        self.leaves: Dict[int, ProviderService] = {
            shard: ProviderService(
                directory=root / SHARDS_DIRNAME / str(shard),
                **service_options,
            )
            for shard in ring.shards
        }
        # The route set wants an endpoint per shard; here it only has
        # to carry the shard id to the transport factory.
        self._routing_ring = ring.with_endpoints(
            {shard: f"local:{shard}" for shard in ring.shards}
        )

    def transport(self, tenant: str = DEFAULT_TENANT) -> MultiShardProvider:
        """A fleet client bound to ``tenant`` over the local leaves."""

        def leaf(address: Tuple[str, int]) -> LocalProvider:
            return LocalProvider(self.leaves[address[1]], tenant=tenant)

        return MultiShardProvider(
            self._routing_ring, tenant=tenant, transport_factory=leaf
        )

    def close(self) -> None:
        for service in self.leaves.values():
            service.close()


class RemoteKmShardPool:
    """Guarded routes to KM sketch-observer processes (front side).

    The multi-process observer pool of
    :class:`~repro.tedstore.sharding.ShardedKeyManager`, built when its
    ring publishes endpoints; ``LocalKmShardPool`` there is the
    in-process counterpart with the same surface. ``observe`` is the
    only hot call; failures surface as :class:`ShardUnavailableError`
    so a keygen batch over a dead observer fails loudly at the front
    instead of hanging the client pipeline.
    """

    def __init__(
        self,
        ring: HashRing,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failures: int = 3,
        breaker_reset: float = 5.0,
        heartbeat_interval: float = 0.0,
        probe_timeout: float = 2.0,
        io_timeout: float = 60.0,
        connect_timeout: float = 10.0,
        transport_factory: Optional[Callable] = None,
        clock=None,
    ) -> None:
        def factory(address: Tuple[str, int]):
            return RemoteShardObserver(
                address,
                retry_policy=retry_policy,
                connect_timeout=connect_timeout,
                io_timeout=io_timeout,
            )

        self.ring = ring
        # No observer lives in this process: nothing for the front to
        # mirror its tracking map into or recover its state from.
        self.observers: Dict[int, object] = {}
        self._routes = ShardRouteSet(
            "km",
            ring,
            transport_factory or factory,
            breaker_failures=breaker_failures,
            breaker_reset=breaker_reset,
            probe_timeout=probe_timeout,
            heartbeat_interval=heartbeat_interval,
            clock=clock,
        )

    def admit(self, shard_id: int) -> None:
        self._routes.admit(shard_id)

    def observe(
        self,
        shard_id: int,
        client_id: str,
        sequence: int,
        hash_vectors: List[List[int]],
    ) -> List[int]:
        request = m.ShardObserveRequest(
            client_id=client_id,
            sequence=sequence,
            hash_vectors=hash_vectors,
        )
        response = self._routes.call(shard_id, lambda t: t.observe(request))
        if len(response.estimates) != len(hash_vectors):
            raise m.ProtocolError(
                f"observer shard {shard_id} returned "
                f"{len(response.estimates)} estimates for "
                f"{len(hash_vectors)} vectors"
            )
        return response.estimates

    def shard_health(self) -> Dict[int, str]:
        return self._routes.shard_health()

    def close(self) -> None:
        self._routes.close()


__all__ = [
    "LocalFleet",
    "MultiShardProvider",
    "RemoteKmShardPool",
    "ShardRoute",
    "ShardRouteSet",
]
