"""Multi-tenant load runner: drives a TEDStore deployment per a profile.

The runner turns a :class:`~repro.loadgen.workload.WorkloadProfile` into
live traffic against either an in-process deployment (built on demand —
the zero-network-cost limit, same convention as the benchmarks) or a
running TCP deployment (``--km``/``--provider``). Each worker thread owns
one :class:`~repro.tedstore.client.TedStoreClient` per tenant it touches
(clients are not shared across threads), tenants share a per-tenant
master key so any worker can restore any file of that tenant, and every
operation outcome is recorded three ways at once:

* cumulative registry instruments (``ted_loadgen_*``) — the report and
  ``BENCH_load.json`` read these;
* the :class:`~repro.obs.slo.SLOTracker` windows — live p50/p99, error
  ratios, and burn-rate gauges;
* the optional :class:`~repro.obs.flight.FlightRecorder` — one ``op``
  event per operation plus periodic metric deltas, replayable with
  ``repro top --replay``.

Payload generation (dedup locality) lives in :class:`PayloadForge`:
files are composed of fixed-size units drawn from a per-tenant pool, a
cross-tenant shared pool, or fresh seeded randomness. Unit reuse gives
the chunker long identical runs, so the provider observes the partial-
dedup mixes the profile dialed in without the forge knowing anything
about chunk boundaries.
"""

from __future__ import annotations

import queue
import random
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.loadgen.workload import WorkloadProfile
from repro.obs import metrics as obs_metrics
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.crypto.cipher import get_profile
from repro.tedstore.client import TedStoreClient
from repro.tedstore.faults import FaultyKeyManager, FaultyProvider
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.provider import ProviderService

_REGISTRY = obs_metrics.get_registry()
_OP_SECONDS = _REGISTRY.histogram(
    "ted_loadgen_op_seconds",
    "End-to-end latency of load-generator operations",
    labelnames=("op",),
)
_OPS = _REGISTRY.counter(
    "ted_loadgen_ops_total",
    "Load-generator operations by outcome",
    labelnames=("op", "status"),
)
_BYTES = _REGISTRY.counter(
    "ted_loadgen_bytes_total",
    "Logical bytes moved by the load generator",
    labelnames=("op",),
)
_QUEUE_DEPTH = _REGISTRY.gauge(
    "ted_loadgen_queue_depth",
    "Open-loop dispatch queue depth",
)
_INFLIGHT = _REGISTRY.gauge(
    "ted_loadgen_inflight",
    "Operations currently executing",
)
_SHED = _REGISTRY.counter(
    "ted_loadgen_arrivals_shed_total",
    "Open-loop arrivals dropped because the dispatch queue was full",
)


class PayloadForge:
    """Seeded payload generator with tunable dedup locality. Thread-safe.

    One forge per tenant; ``shared_units`` is the cross-tenant pool every
    forge of a run shares (its own lock serializes access).
    """

    def __init__(
        self,
        shape,
        rng: random.Random,
        shared_units: List[bytes],
        shared_lock: threading.Lock,
    ) -> None:
        self._shape = shape
        self._rng = rng
        self._unit_bytes = shape.unit_kb << 10
        self._units: List[bytes] = []
        self._payloads: List[bytes] = []
        self._common_units = shared_units
        self._common_lock = shared_lock
        self._lock = threading.Lock()

    def _pool_unit(self) -> Optional[bytes]:
        use_shared = self._rng.random() < self._shape.shared_prob
        if use_shared:
            with self._common_lock:
                if self._common_units:
                    return self._rng.choice(self._common_units)
        if self._units:
            return self._rng.choice(self._units)
        return None

    def _remember_unit(self, unit: bytes) -> None:
        pool = self._units
        if len(pool) < self._shape.pool_units:
            pool.append(unit)
        else:
            pool[self._rng.randrange(len(pool))] = unit
        with self._common_lock:
            shared = self._common_units
            if len(shared) < self._shape.pool_units:
                shared.append(unit)
            else:
                shared[self._rng.randrange(len(shared))] = unit

    def payload(self) -> bytes:
        """One file payload following the profile's dedup mix."""
        with self._lock:
            shape = self._shape
            if self._payloads and self._rng.random() < shape.dup_file_prob:
                return self._rng.choice(self._payloads)
            size_kb = self._rng.randint(shape.min_kb, shape.max_kb)
            units = max(1, (size_kb << 10) // self._unit_bytes)
            parts: List[bytes] = []
            for _ in range(units):
                unit = None
                if self._rng.random() < shape.dup_chunk_prob:
                    unit = self._pool_unit()
                if unit is None:
                    unit = self._rng.randbytes(self._unit_bytes)
                    self._remember_unit(unit)
                parts.append(unit)
            payload = b"".join(parts)
            if len(self._payloads) < shape.pool_files:
                self._payloads.append(payload)
            else:
                index = self._rng.randrange(len(self._payloads))
                self._payloads[index] = payload
            return payload


class _TenantCatalog:
    """Names a tenant has successfully uploaded (restore candidates)."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._lock = threading.Lock()

    def add(self, name: str) -> None:
        with self._lock:
            self._names.append(name)

    def pick(self, rng: random.Random) -> Optional[str]:
        with self._lock:
            if not self._names:
                return None
            return rng.choice(self._names)

    def __len__(self) -> int:
        with self._lock:
            return len(self._names)


def _build_client(
    profile: WorkloadProfile, tenant: str, worker: int, km, provider
) -> TedStoreClient:
    """One worker's client for ``tenant`` over the given transports."""
    if profile.faults.enabled():
        # Distinct seed per (worker, tenant) so schedules differ per
        # transport but replay identically run to run.
        # zlib.crc32, not hash(): PYTHONHASHSEED randomizes str hashes
        # per process, which would silently break replayability.
        fault_seed = (
            profile.seed * 1_000_003
            + worker * 8191
            + zlib.crc32(tenant.encode()) % 8191
        )
        km = FaultyKeyManager(km, profile.faults.plan(fault_seed))
        provider = FaultyProvider(
            provider, profile.faults.plan(fault_seed + 1)
        )
    return TedStoreClient(
        km,
        provider,
        master_key=_tenant_master_key(tenant),
        profile=get_profile("shactr"),
        batch_size=4096,
    )


class InProcessDeployment:
    """Shared KM + provider services, fresh local transports per client.

    ``[deployment] shards > 1`` swaps in the sharded topology: a
    :class:`~repro.tedstore.fleet.LocalFleet` of on-disk provider leaves
    under a temp dir (the in-memory provider has nothing to shard),
    reached through the fleet client, and a
    :class:`~repro.tedstore.sharding.ShardedKeyManager` front, so load
    profiles exercise the DESIGN.md §15 routing path end to end.
    """

    def __init__(self, profile: WorkloadProfile) -> None:
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._fleet = None
        shards = profile.deployment.shards
        if shards > 1:
            from repro.core.ted import TedKeyManager
            from repro.tedstore.fleet import LocalFleet
            from repro.tedstore.ring import HashRing
            from repro.tedstore.sharding import ShardedKeyManager

            ring = HashRing.build(shards, seed=profile.deployment.ring_seed)
            self.key_manager = ShardedKeyManager(
                TedKeyManager(
                    secret=b"tedstore-default-secret",
                    blowup_factor=1.05,
                    batch_size=48_000,
                    sketch_width=2**21,
                ),
                ring,
            )
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="loadgen-shards-"
            )
            self._fleet = LocalFleet(
                self._tempdir.name,
                ring,
                cross_user_dedup=profile.tenants.cross_user_dedup,
            )
        else:
            self.key_manager = KeyManagerService()
            self.provider = ProviderService(
                in_memory=True,
                cross_user_dedup=profile.tenants.cross_user_dedup,
            )

    def client(
        self, profile: WorkloadProfile, tenant: str, worker: int
    ) -> TedStoreClient:
        km = LocalKeyManager(
            self.key_manager, client_id=f"loadgen-{worker}"
        )
        if self._fleet is not None:
            provider = self._fleet.transport(tenant)
        else:
            provider = LocalProvider(self.provider, tenant=tenant)
        return _build_client(profile, tenant, worker, km, provider)

    def close(self) -> None:
        (self._fleet or self.provider).close()
        close_km = getattr(self.key_manager, "close", None)
        if callable(close_km):
            close_km()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None


class TcpDeployment:
    """Connects each worker client to already-running TCP servers."""

    def __init__(
        self,
        km_address: Tuple[str, int],
        provider_address: Tuple[str, int],
        auth_token: bytes = b"",
    ) -> None:
        self.km_address = km_address
        self.provider_address = provider_address
        self.auth_token = auth_token
        self._transports: List[object] = []
        self._lock = threading.Lock()

    def client(
        self, profile: WorkloadProfile, tenant: str, worker: int
    ) -> TedStoreClient:
        from repro.tedstore.network import RemoteKeyManager, RemoteProvider

        km = RemoteKeyManager(self.km_address)
        provider = RemoteProvider(
            self.provider_address,
            tenant=tenant,
            auth_token=self.auth_token,
        )
        with self._lock:
            self._transports.extend((km, provider))
        return _build_client(profile, tenant, worker, km, provider)

    def close(self) -> None:
        with self._lock:
            transports, self._transports = self._transports, []
        for transport in transports:
            try:
                transport.close()
            except Exception:
                pass  # teardown after a faulted run; nothing to salvage


def _tenant_master_key(tenant: str) -> bytes:
    import hashlib

    return hashlib.sha256(b"loadgen-tenant-key:" + tenant.encode()).digest()


@dataclass
class RunTotals:
    """Raw outcome counts the runner hands to the report layer."""

    started: float = 0.0
    duration_seconds: float = 0.0
    ops: int = 0
    errors: int = 0
    shed: int = 0
    bytes_moved: int = 0
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)


class _WorkerState:
    """Per-worker lazily-built clients plus a seeded RNG."""

    def __init__(self, runner: "LoadRunner", worker: int) -> None:
        self.runner = runner
        self.worker = worker
        self.rng = random.Random(runner.profile.seed * 65_537 + worker)
        self._clients: Dict[str, TedStoreClient] = {}

    def client(self, tenant: str) -> TedStoreClient:
        client = self._clients.get(tenant)
        if client is None:
            client = self.runner.deployment.client(
                self.runner.profile, tenant, self.worker
            )
            self._clients[tenant] = client
        return client


class LoadRunner:
    """Executes one profile and returns raw totals.

    Args:
        profile: the declarative run description.
        deployment: target factory; defaults to a fresh in-process
            deployment owned (and closed) by the runner.
        tracker: SLO tracker to feed; a fresh one is built from the
            profile's SLOs if omitted.
        flight: optional flight recorder receiving op events and
            periodic metric deltas.
        clock / sleep: injectable time sources (tests compress time).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        deployment=None,
        tracker: Optional[SLOTracker] = None,
        flight: Optional[FlightRecorder] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.profile = profile
        self._owns_deployment = deployment is None
        self.deployment = deployment or InProcessDeployment(profile)
        self.tracker = tracker or SLOTracker(profile.slos, clock=clock)
        self.flight = flight
        self._clock = clock
        self._sleep = sleep
        self._tenants = [
            f"tenant{i:02d}" for i in range(profile.tenants.count)
        ]
        self._weights = profile.tenants.weights()
        self._catalogs = {t: _TenantCatalog() for t in self._tenants}
        self._forges: Dict[str, PayloadForge] = {}
        shared_units: List[bytes] = []
        shared_lock = threading.Lock()
        for index, tenant in enumerate(self._tenants):
            self._forges[tenant] = PayloadForge(
                profile.files,
                random.Random(profile.seed * 31 + index),
                shared_units,
                shared_lock,
            )
        self._seq = 0
        self._seq_lock = threading.Lock()
        self.totals = RunTotals()
        self._totals_lock = threading.Lock()
        self._stop = threading.Event()

    # -- op execution ---------------------------------------------------------

    def _next_name(self, tenant: str) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"{tenant}/file-{self._seq:06d}"

    def _pick_tenant(self, rng: random.Random) -> str:
        return rng.choices(self._tenants, weights=self._weights, k=1)[0]

    def _pick_op(self, rng: random.Random, tenant: str) -> str:
        wants_upload = (
            rng.random() < self.profile.mix.upload_fraction
        )
        if not wants_upload and len(self._catalogs[tenant]) == 0:
            return "upload"  # nothing to restore yet
        return "upload" if wants_upload else "restore"

    def _run_op(self, state: _WorkerState, tenant: str, op: str) -> None:
        rng = state.rng
        ok = True
        error: Optional[str] = None
        nbytes = 0
        start = time.perf_counter()
        try:
            client = state.client(tenant)
            if op == "upload":
                name = self._next_name(tenant)
                payload = self._forges[tenant].payload()
                client.upload(name, payload)
                nbytes = len(payload)
                self._catalogs[tenant].add(name)
            else:
                name = self._catalogs[tenant].pick(rng)
                if name is None:
                    raise FileNotFoundError("empty catalog")
                nbytes = len(client.download(name))
        except Exception as exc:
            ok = False
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start

        _OP_SECONDS.labels(op=op).observe(elapsed)
        _OPS.labels(op=op, status="ok" if ok else "error").inc()
        _BYTES.labels(op=op).inc(nbytes)
        self.tracker.observe(op, elapsed, error=not ok)
        if self.flight is not None:
            self.flight.emit_op(op, tenant, elapsed, ok, nbytes, error)
        with self._totals_lock:
            self.totals.ops += 1
            self.totals.errors += 0 if ok else 1
            self.totals.bytes_moved += nbytes
            per_tenant = self.totals.per_tenant.setdefault(
                tenant, {"upload": 0, "restore": 0, "errors": 0}
            )
            per_tenant[op] += 1
            per_tenant["errors"] += 0 if ok else 1

    # -- closed loop ----------------------------------------------------------

    def _closed_worker(self, worker: int, deadline: float) -> None:
        state = _WorkerState(self, worker)
        profile = self.profile
        while not self._stop.is_set() and self._clock() < deadline:
            tenant = self._pick_tenant(state.rng)
            op = self._pick_op(state.rng, tenant)
            with _INFLIGHT.track():
                self._run_op(state, tenant, op)
            if profile.think_seconds:
                self._sleep(profile.think_seconds)

    # -- open loop ------------------------------------------------------------

    def _open_dispatcher(
        self, work: "queue.Queue", deadline: float
    ) -> None:
        rng = random.Random(self.profile.seed)
        next_arrival = self._clock()
        while not self._stop.is_set():
            now = self._clock()
            if now >= deadline:
                break
            if now < next_arrival:
                self._sleep(min(next_arrival - now, 0.05))
                continue
            next_arrival += rng.expovariate(self.profile.arrival_rate)
            tenant = self._pick_tenant(rng)
            op = self._pick_op(rng, tenant)
            try:
                work.put_nowait((tenant, op))
            except queue.Full:
                # Open loop never blocks the arrival clock: a full queue
                # is overload, recorded as a shed (and an SLO error).
                _SHED.inc()
                self.tracker.observe(op, 0.0, error=True)
                if self.flight is not None:
                    self.flight.emit_op(
                        op, tenant, 0.0, False, 0, error="shed: queue full"
                    )
                with self._totals_lock:
                    self.totals.shed += 1
                    self.totals.errors += 1
            _QUEUE_DEPTH.set(work.qsize())

    def _open_worker(self, worker: int, work: "queue.Queue") -> None:
        state = _WorkerState(self, worker)
        while True:
            item = work.get()
            if item is None:
                return
            tenant, op = item
            _QUEUE_DEPTH.set(work.qsize())
            with _INFLIGHT.track():
                self._run_op(state, tenant, op)

    # -- periodic flight heartbeat --------------------------------------------

    def _heartbeat(self, interval: float) -> None:
        """Tail metric deltas + SLO evaluations into the flight file."""
        while not self._stop.wait(interval):
            self.tracker.evaluate()  # refresh windowed SLO gauges
            self.flight.emit_metrics_delta()

    # -- entry point ----------------------------------------------------------

    def run(self) -> RunTotals:
        """Execute the profile to completion; returns raw totals."""
        profile = self.profile
        if self.flight is not None:
            self.flight.emit_meta(
                profile=profile.name,
                mode=profile.mode,
                seed=profile.seed,
                tenants=profile.tenants.count,
                started_unix=round(time.time(), 3),
            )
        started = self._clock()
        self.totals.started = started
        deadline = started + profile.duration_seconds
        threads: List[threading.Thread] = []
        work: Optional[queue.Queue] = None
        heartbeat: Optional[threading.Thread] = None
        try:
            if profile.mode == "closed":
                threads = [
                    threading.Thread(
                        target=self._closed_worker,
                        args=(i, deadline),
                        name=f"loadgen-closed-{i}",
                        daemon=True,
                    )
                    for i in range(profile.clients)
                ]
            else:
                work = queue.Queue(maxsize=profile.queue_limit)
                threads = [
                    threading.Thread(
                        target=self._open_worker,
                        args=(i, work),
                        name=f"loadgen-open-{i}",
                        daemon=True,
                    )
                    for i in range(profile.max_inflight)
                ]
                threads.append(
                    threading.Thread(
                        target=self._open_dispatcher,
                        args=(work, deadline),
                        name="loadgen-dispatch",
                        daemon=True,
                    )
                )
            if self.flight is not None:
                heartbeat = threading.Thread(
                    target=self._heartbeat,
                    args=(min(0.5, profile.duration_seconds / 4),),
                    name="loadgen-heartbeat",
                    daemon=True,
                )
                heartbeat.start()
            for thread in threads:
                thread.start()
            if profile.mode == "closed":
                for thread in threads:
                    thread.join()
            else:
                threads[-1].join()  # dispatcher observes the deadline
                for _ in range(profile.max_inflight):
                    work.put(None)
                for thread in threads[:-1]:
                    thread.join()
        finally:
            self._stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2.0)
            self.totals.duration_seconds = self._clock() - started
            if self.flight is not None:
                self.flight.emit_metrics_delta()
                self.flight.emit_meta(
                    profile=profile.name,
                    finished=True,
                    ops=self.totals.ops,
                    errors=self.totals.errors,
                )
                self.flight.flush()
            if self._owns_deployment:
                self.deployment.close()
        return self.totals

    def stop(self) -> None:
        """Ask the run to wind down early (signal handlers, tests)."""
        self._stop.set()


__all__ = [
    "InProcessDeployment",
    "LoadRunner",
    "PayloadForge",
    "RunTotals",
    "TcpDeployment",
]
