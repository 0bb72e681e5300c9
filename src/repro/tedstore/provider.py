"""TEDStore storage-provider service (multi-tenant, DESIGN.md §13).

The provider owns the deduplicated storage backend: ciphertext chunks are
deduplicated by fingerprint (provider-side dedup, §2.2), packed into
containers, and indexed by the LSM fingerprint index. Sealed file/key
recipes are stored as opaque blobs keyed by (tenant, file name) — the
provider never deduplicates or inspects metadata (§2.2).

**Multi-tenancy.** Every request is served in a tenant namespace (the wire
layer binds a connection to a tenant via the ``HELLO`` handshake; untagged
connections are the :data:`DEFAULT_TENANT`). Recipes, quota accounting,
and per-tenant counters are always isolated per tenant; what *chunks* share
is the operator's choice:

* ``cross_user_dedup=True`` — one fingerprint index and container pool is
  shared by every tenant, maximizing storage savings at the cost of the
  cross-tenant chunk-existence channel (frequency-analysis leakage,
  PAPERS.md). Recipes and keys stay per-tenant (REED's boundary).
* ``cross_user_dedup=False`` — each tenant gets its own dedup engine
  (containers + index) under ``tenants/<id>/``, so one tenant's uploads
  never deduplicate against another's and per-tenant stored state is
  independent of tenant interleaving (the differential isolation gate).

**Concurrency.** There is no global provider lock. Each tenant holds
exactly one engine — the shared one, or its private one — and calls it
the same way in every mode. Engines are thread-safe on their own
(:class:`~repro.storage.dedup.DedupEngine`'s striped per-fingerprint
locks let distinct tenants store and dedup-check chunks concurrently),
so the tenant lock covers only recipes, quota checks and counters, and
GETs take no tenant lock at all. Lock order: admin → tenant → engine.

**Quotas.** ``quota_bytes`` (logical bytes offered) and ``quota_files``
are enforced per tenant *before* any storage mutation: an over-quota batch
is rejected whole with :class:`QuotaExceededError` (``MSG_ERROR`` on the
wire) and leaves counters, containers, and the index untouched.
"""

from __future__ import annotations

import hmac
import re
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.storage.dedup import DedupEngine, InMemoryDedupEngine
from repro.storage.kvstore import KVStore
from repro.storage.scrub import BackgroundScrubber
from repro.storage.sharded import RECIPES_DIRNAME, TENANTS_DIRNAME
from repro.tedstore.messages import (
    Chunks,
    GetChunks,
    GetRecipes,
    PutChunks,
    PutChunksResponse,
    PutRecipes,
)
from repro.utils.varint import decode_uvarint, encode_uvarint

#: Namespace served to connections that never sent a ``HELLO`` (old
#: clients, single-tenant deployments). Its storage lives at the root of
#: the provider directory, so pre-multi-tenant layouts keep working.
DEFAULT_TENANT = "default"

#: Tenant ids become directory names; keep them path-safe and bounded.
_TENANT_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_REGISTRY = obs_metrics.get_registry()
_TENANT_CHUNKS = _REGISTRY.counter(
    "ted_provider_tenant_chunks_total",
    "Chunks offered per tenant, by dedup outcome",
    labelnames=("tenant", "outcome"),
)
_TENANT_BYTES = _REGISTRY.counter(
    "ted_provider_tenant_logical_bytes_total",
    "Logical bytes offered per tenant",
    labelnames=("tenant",),
)
_QUOTA_REJECTIONS = _REGISTRY.counter(
    "ted_provider_quota_rejections_total",
    "Requests rejected by per-tenant quota enforcement",
    labelnames=("tenant", "resource"),
)
_RECIPE_QUARANTINED = _REGISTRY.counter(
    "ted_provider_recipe_quarantined_total",
    "Durable recipe blobs that failed to decode at startup",
)


class QuotaExceededError(RuntimeError):
    """A request would push a tenant past its quota; nothing was stored."""


class AuthenticationError(PermissionError):
    """HELLO presented a missing or wrong auth token for its tenant."""


class ShardedStoreError(RuntimeError):
    """The directory is a sharded store root, which no single service serves.

    A root holding ``ring.json`` is N provider roots under
    ``shards/<k>/`` (DESIGN.md §15); each is served by its own
    ``repro serve-shard --role provider`` process.
    """


def _encode_recipes(file_recipe: bytes, key_recipe: bytes) -> bytes:
    return encode_uvarint(len(file_recipe)) + file_recipe + key_recipe


def _decode_recipes(blob: bytes) -> Tuple[bytes, bytes]:
    """Split a stored recipe blob into (file recipe, key recipe).

    Raises:
        ValueError: truncated or corrupt blob — the uvarint length must
            lie within the blob, or the split would silently produce
            wrong recipes.
    """
    length, pos = decode_uvarint(blob, 0)
    if pos + length > len(blob):
        raise ValueError(
            f"corrupt recipe blob: file-recipe length {length} exceeds "
            f"remaining {len(blob) - pos} bytes"
        )
    return blob[pos : pos + length], blob[pos + length :]


class _TenantState:
    """One tenant's namespace: recipes, quota accounting, its engine."""

    def __init__(self, name: str, engine) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.recipes: Dict[str, Tuple[bytes, bytes]] = {}
        self.recipe_store: Optional[KVStore] = None
        #: Recipe keys whose durable blobs failed to decode at startup.
        self.quarantined_recipes: List[str] = []
        # The shared engine (cross-user dedup on) or a private one.
        self.engine = engine
        # Per-tenant accounting (logical view of this tenant's offers).
        self.logical_chunks = 0
        self.logical_bytes = 0
        self.stored_chunks = 0
        self.duplicate_chunks = 0


class ProviderService:
    """Multi-tenant deduplicating storage service.

    Args:
        directory: provider storage root. The default tenant stores at
            the root (legacy layout); named tenants under ``tenants/<id>``.
        container_bytes: container capacity (paper default 8 MB).
        in_memory: keep chunks in
            :class:`~repro.storage.dedup.InMemoryDedupEngine` instead of
            the on-disk engine — Experiments B.1–B.3 remove disk I/O to
            measure compute limits.
        engine: inject a pre-built engine as the shared/default engine.
        cross_user_dedup: share the fingerprint index and containers
            across tenants (True, the storage-efficient default) or give
            each tenant a private engine (False, the isolated mode).
        quota_bytes: per-tenant logical-byte quota (None = unlimited).
        quota_files: per-tenant file-count quota (None = unlimited).
        auth_tokens: optional ``{tenant: token}`` map; a tenant listed
            here must present its token in HELLO. Unlisted tenants are
            admitted without a token.
        scrub_interval: run the background scrubber (read-only per-chunk
            verification; DESIGN.md §12) every this many seconds over the
            default/shared engine; ``None`` disables it. Requires the
            on-disk engine.

    Raises:
        ShardedStoreError: ``directory`` is a sharded store root.
        RuntimeError: ``directory`` holds an unfinished reshard.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        container_bytes: int = 8 << 20,
        in_memory: bool = False,
        engine: Optional[DedupEngine] = None,
        scrub_interval: Optional[float] = None,
        cross_user_dedup: bool = True,
        quota_bytes: Optional[int] = None,
        quota_files: Optional[int] = None,
        auth_tokens: Optional[Dict[str, bytes]] = None,
    ) -> None:
        if quota_bytes is not None and quota_bytes < 0:
            raise ValueError("quota_bytes cannot be negative")
        if quota_files is not None and quota_files < 0:
            raise ValueError("quota_files cannot be negative")
        self.in_memory = in_memory
        self.cross_user_dedup = cross_user_dedup
        self.quota_bytes = quota_bytes
        self.quota_files = quota_files
        self.auth_tokens = dict(auth_tokens or {})
        self.container_bytes = container_bytes
        self._directory = Path(directory) if directory is not None else None
        self._closed = False
        # Guards tenant-map mutation and close(); never held while a
        # tenant lock is held (order: admin -> tenant -> engine locks).
        self._admin_lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}

        if not in_memory and engine is None and self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            from repro.tedstore.reshard import refuse_pending_reshard

            refuse_pending_reshard(self._directory)
            if (self._directory / "ring.json").exists():
                raise ShardedStoreError(
                    f"{self._directory} is a sharded store root "
                    "(ring.json); serve each shards/<k> leaf with "
                    "`repro serve-shard --role provider`"
                )
        if in_memory:
            self.engine = InMemoryDedupEngine()
        elif engine is not None:
            self.engine = engine
        elif directory is None:
            raise ValueError(
                "directory is required unless in_memory or engine given"
            )
        else:
            self.engine = DedupEngine(
                self._directory, container_bytes=container_bytes
            )
        # Materialize the default tenant eagerly: it owns the legacy
        # root-layout recipes, which must be durable-loaded before the
        # first request (a provider restart must still resolve every
        # previously-acked file name, DESIGN.md §12).
        self._tenant(DEFAULT_TENANT)

        self.scrubber: Optional[BackgroundScrubber] = None
        if scrub_interval is not None:
            if in_memory:
                raise ValueError("scrubbing requires the on-disk engine")
            self.scrubber = BackgroundScrubber(
                self.engine, interval_seconds=scrub_interval
            )
            self.scrubber.start()

    # -- tenant management ----------------------------------------------------

    @staticmethod
    def validate_tenant(tenant: str) -> str:
        """Check a tenant id is path-safe; returns it unchanged.

        Raises:
            ValueError: empty, over-long, or non [A-Za-z0-9._-] ids (they
                become directory names, so traversal must be impossible).
        """
        if not _TENANT_ID.match(tenant):
            raise ValueError(f"invalid tenant id: {tenant!r}")
        return tenant

    def authenticate(self, tenant: str, token: bytes) -> None:
        """Admit (or reject) a HELLO for ``tenant``.

        Raises:
            ValueError: malformed tenant id.
            AuthenticationError: the tenant has a configured token and
                the presented one does not match (constant-time compare).
        """
        self.validate_tenant(tenant)
        expected = self.auth_tokens.get(tenant)
        if expected is not None and not hmac.compare_digest(expected, token):
            raise AuthenticationError(
                f"authentication failed for tenant {tenant}"
            )

    def _tenant_root(self, tenant: str) -> Path:
        assert self._directory is not None
        if tenant == DEFAULT_TENANT:
            return self._directory
        return self._directory / TENANTS_DIRNAME / tenant

    def _tenant_engine(self, tenant: str):
        """The engine a new tenant's chunks go to."""
        # The default tenant owns the root-layout engine; partitioning
        # only namespaces the rest.
        if self.cross_user_dedup or tenant == DEFAULT_TENANT:
            return self.engine
        if self.in_memory:
            return InMemoryDedupEngine()
        if self._directory is None:
            # An injected single engine cannot be partitioned.
            raise ValueError(
                "per-tenant dedup engines (cross_user_dedup=False) "
                "require a storage directory"
            )
        return DedupEngine(
            self._tenant_root(tenant), container_bytes=self.container_bytes
        )

    def _tenant(self, tenant: str) -> _TenantState:
        """Fetch-or-create a tenant namespace (thread-safe, lazy)."""
        state = self._tenants.get(tenant)
        if state is not None:
            return state
        self.validate_tenant(tenant)
        with self._admin_lock:
            state = self._tenants.get(tenant)
            if state is not None:
                return state
            if self._closed:
                raise RuntimeError("provider is closed")
            state = _TenantState(tenant, self._tenant_engine(tenant))
            if not self.in_memory and self._directory is not None:
                # Recipes are durable alongside the chunks: a provider
                # restart must still resolve every previously-acked
                # file name, or the chunks it kept are unreachable
                # (DESIGN.md §12).
                state.recipe_store = KVStore(
                    self._tenant_root(tenant) / RECIPES_DIRNAME
                )
                self._load_recipes(state)
            self._tenants[tenant] = state
            return state

    def _load_recipes(self, state: _TenantState) -> None:
        """Load a tenant's durable recipes, loudly quarantining corruption.

        A blob that fails :func:`_decode_recipes` (truncated length,
        undecodable name) is skipped and recorded — serving silently
        wrong recipes would corrupt every restore of that file.
        """
        assert state.recipe_store is not None
        for name, blob in state.recipe_store.items():
            try:
                decoded_name = name.decode("utf-8")
                state.recipes[decoded_name] = _decode_recipes(blob)
            except (ValueError, UnicodeDecodeError) as exc:
                key = name.decode("utf-8", "replace")
                state.quarantined_recipes.append(key)
                _RECIPE_QUARANTINED.inc()
                print(
                    f"provider: quarantined corrupt recipe blob "
                    f"{key!r} (tenant {state.name}): {exc}",
                    file=sys.stderr,
                )

    # -- quota enforcement ----------------------------------------------------

    def _check_bytes_quota(
        self, state: _TenantState, incoming_bytes: int
    ) -> None:
        """Reject (whole batch, pre-mutation) if logical bytes would exceed."""
        if (
            self.quota_bytes is not None
            and state.logical_bytes + incoming_bytes > self.quota_bytes
        ):
            _QUOTA_REJECTIONS.labels(
                tenant=state.name, resource="bytes"
            ).inc()
            raise QuotaExceededError(
                f"quota exceeded: tenant {state.name} logical bytes "
                f"{state.logical_bytes} + {incoming_bytes} over limit "
                f"{self.quota_bytes}"
            )

    def _check_files_quota(self, state: _TenantState, file_name: str) -> None:
        """Reject a *new* file's recipes once the file-count quota is hit."""
        if (
            self.quota_files is not None
            and file_name not in state.recipes
            and len(state.recipes) >= self.quota_files
        ):
            _QUOTA_REJECTIONS.labels(
                tenant=state.name, resource="files"
            ).inc()
            raise QuotaExceededError(
                f"quota exceeded: tenant {state.name} at file limit "
                f"{self.quota_files}"
            )

    # -- chunk path ----------------------------------------------------------

    def handle_put_chunks(
        self, request: PutChunks, tenant: str = DEFAULT_TENANT
    ) -> PutChunksResponse:
        """Store a batch of ciphertext chunks with inline deduplication.

        Raises:
            QuotaExceededError: the batch would push the tenant past its
                byte quota; rejected before any mutation.
        """
        state = self._tenant(tenant)
        batch_bytes = sum(len(data) for _, data in request.chunks)
        stored = 0
        duplicates = 0
        with tracing.get_tracer().span(
            "provider.put_chunks",
            attributes={"chunks": len(request.chunks), "tenant": tenant},
        ), state.lock:
            self._check_bytes_quota(state, batch_bytes)
            for fingerprint, data in request.chunks:
                if state.engine.store(fingerprint, data):
                    stored += 1
                else:
                    duplicates += 1
            state.logical_chunks += len(request.chunks)
            state.logical_bytes += batch_bytes
            state.stored_chunks += stored
            state.duplicate_chunks += duplicates
        _TENANT_CHUNKS.labels(tenant=tenant, outcome="stored").inc(stored)
        _TENANT_CHUNKS.labels(tenant=tenant, outcome="duplicate").inc(
            duplicates
        )
        _TENANT_BYTES.labels(tenant=tenant).inc(batch_bytes)
        return PutChunksResponse(stored=stored, duplicates=duplicates)

    def handle_get_chunks(
        self, request: GetChunks, tenant: str = DEFAULT_TENANT
    ) -> Chunks:
        """Fetch chunks by fingerprint, in request order.

        With cross-user dedup off, lookups resolve only against the
        tenant's own namespace — another tenant's fingerprints are
        unknown here by construction.

        Raises:
            KeyError: if any fingerprint is unknown.
        """
        state = self._tenant(tenant)
        with tracing.get_tracer().span(
            "provider.get_chunks",
            attributes={
                "chunks": len(request.fingerprints),
                "tenant": tenant,
            },
        ):
            return Chunks(
                chunks=state.engine.load_many(request.fingerprints)
            )

    # -- recipe path -------------------------------------------------------------

    def handle_put_recipes(
        self, request: PutRecipes, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Store a file's sealed file and key recipes verbatim (§2.2).

        Directory-backed providers write through to the tenant's durable
        recipe store before the recipes become visible: a failed durable
        write leaves the served version unchanged.

        Raises:
            QuotaExceededError: a new file would exceed the tenant's
                file-count quota; rejected before any mutation.
        """
        state = self._tenant(tenant)
        with state.lock:
            self._check_files_quota(state, request.file_name)
            if state.recipe_store is not None:
                state.recipe_store.put(
                    request.file_name.encode("utf-8"),
                    _encode_recipes(
                        request.sealed_file_recipe,
                        request.sealed_key_recipe,
                    ),
                )
            state.recipes[request.file_name] = (
                request.sealed_file_recipe,
                request.sealed_key_recipe,
            )

    def handle_get_recipes(
        self, request: GetRecipes, tenant: str = DEFAULT_TENANT
    ) -> PutRecipes:
        """Fetch a file's sealed recipes from the tenant's namespace.

        Raises:
            FileNotFoundError: unknown file *in this tenant's namespace* —
                another tenant's files are invisible here, whatever the
                cross-user dedup setting.
        """
        state = self._tenant(tenant)
        with state.lock:
            entry = state.recipes.get(request.file_name)
        if entry is None:
            raise FileNotFoundError(
                f"no such file for tenant {tenant}: {request.file_name}"
            )
        file_recipe, key_recipe = entry
        return PutRecipes(
            file_name=request.file_name,
            sealed_file_recipe=file_recipe,
            sealed_key_recipe=key_recipe,
        )

    # -- bookkeeping ----------------------------------------------------------------

    def _tenant_snapshot(self) -> List[_TenantState]:
        with self._admin_lock:
            return list(self._tenants.values())

    @staticmethod
    def _engines(states: List[_TenantState]) -> list:
        """Every distinct engine the given tenants hold, in tenant order.

        The default tenant holds :attr:`engine`, so it is always first.
        """
        engines: list = []
        for state in states:
            if all(state.engine is not engine for engine in engines):
                engines.append(state.engine)
        return engines

    def flush(self) -> None:
        """Seal containers and flush indexes/recipes across all tenants."""
        states = self._tenant_snapshot()
        unflushed = self._engines(states)
        for state in states:
            # Each engine flushes under its first holder's tenant lock,
            # the lock that tenant's PUT batches hold, so it never seals
            # halfway through one of them.
            with state.lock:
                if state.engine in unflushed:
                    unflushed.remove(state.engine)
                    state.engine.flush()
                if state.recipe_store is not None:
                    state.recipe_store.flush()

    def close(self) -> None:
        """Stop the scrubber and flush/release all storage.

        Re-entrant: the second and later calls are no-ops. The scrubber
        is always stopped first (it reads the engines being closed), and
        every tenant's stores are closed even if one of them raises —
        the first error propagates after the sweep finishes.
        """
        with self._admin_lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._tenants.values())
        try:
            if self.scrubber is not None:
                self.scrubber.stop()
        finally:
            first_error: Optional[BaseException] = None
            closers = [
                state.recipe_store.close
                for state in states
                if state.recipe_store is not None
            ]
            closers += [engine.close for engine in self._engines(states)]
            for closer in closers:
                try:
                    closer()
                except BaseException as exc:  # keep sweeping, raise later
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error

    def tenant_stats(
        self, tenant: str = DEFAULT_TENANT
    ) -> List[Tuple[str, int]]:
        """One tenant's logical counters (quota accounting view)."""
        state = self._tenant(tenant)
        with state.lock:
            return [
                ("logical_chunks", state.logical_chunks),
                ("logical_bytes", state.logical_bytes),
                ("stored_chunks", state.stored_chunks),
                ("duplicate_chunks", state.duplicate_chunks),
                ("files", len(state.recipes)),
                ("quarantined_recipes", len(state.quarantined_recipes)),
            ]

    def tenants(self) -> List[str]:
        """Materialized tenant ids (stable order for tests/tools)."""
        with self._admin_lock:
            return sorted(self._tenants)

    def stats(self):
        """Counters for the evaluation harness (aggregated over tenants)."""
        states = self._tenant_snapshot()
        files = 0
        for state in states:
            with state.lock:
                files += len(state.recipes)
        totals = {
            "logical_chunks": 0,
            "unique_chunks": 0,
            "logical_bytes": 0,
            "unique_bytes": 0,
            "containers": 0,
        }
        for engine in self._engines(states):
            stats = engine.stats
            totals["logical_chunks"] += stats.logical_chunks
            totals["unique_chunks"] += stats.unique_chunks
            totals["logical_bytes"] += stats.logical_bytes
            totals["unique_bytes"] += stats.unique_bytes
            totals["containers"] += engine.container_count()
        return [
            ("logical_chunks", totals["logical_chunks"]),
            ("unique_chunks", totals["unique_chunks"]),
            ("logical_bytes", totals["logical_bytes"]),
            ("unique_bytes", totals["unique_bytes"]),
            ("files", files),
            ("containers", totals["containers"]),
            ("tenants", len(states)),
        ]
