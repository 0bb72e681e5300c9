"""Differential harness: every client scheduling ≡ the reference oracle.

The client data path (DESIGN.md §10) promises *bit-identical* stored
state whichever way its stages are scheduled. This harness makes that
claim executable: build isolated deployments (own key manager, own
on-disk provider), run the same workload through each — one through the
straight-line :class:`~tests.harness.reference.ReferenceClient`, the
others through :class:`TedStoreClient` at some ``workers`` setting —
and assert that everything durable is equal:

* every byte under the provider's storage directory (containers, chunk
  index) — compared file by file;
* the sealed file/key recipes for every uploaded file;
* the provider's logical/physical dedup accounting (hence the dedup
  ratio);
* the key manager's Count-Min sketch counters, total, current ``t``,
  tracked frequency vector, and request count.

With a client fingerprint cache enabled, duplicate chunks never reach
the provider, so the *offered* chunk counters legitimately shrink; the
``ignore_offered_counters`` flag relaxes exactly those counters and
nothing else — physical state, recipes, and sketch must still match,
with the dedup ratio reconciled from client-side accounting instead.

Configurations cover the paper's three operating points: MLE (every
copy, one key), BTED (fixed ``t``), and FTED (blowup factor ``b``,
``t`` auto-tuned server-side every ``km_batch_size`` chunks).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import get_profile
from repro.storage.dedup import FingerprintCache
from repro.tedstore.client import TedStoreClient, UploadResult
from repro.tedstore.fleet import LocalFleet
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.messages import GetRecipes
from repro.tedstore.provider import ProviderService

from tests.harness.reference import ReferenceClient

#: The paper's three operating points, smallest-knobs-first for tests.
MODES = ("mle", "bted", "fted")

_SKETCH_WIDTH = 2**16


@dataclass
class Deployment:
    """One isolated client/key-manager/provider trio.

    A sharded deployment has a :class:`LocalFleet` instead of one
    ``provider_service``; ``provider`` is the (unwrapped) transport the
    client talks to either way.
    """

    mode: str
    directory: Path
    ted: TedKeyManager
    key_service: KeyManagerService
    provider_service: Optional[ProviderService]
    client: "TedStoreClient | ReferenceClient"
    provider: object = None
    fleet: Optional[LocalFleet] = None

    @property
    def leaves(self) -> List[ProviderService]:
        """Every provider service, one per leaf for a fleet."""
        if self.fleet is not None:
            return list(self.fleet.leaves.values())
        return [self.provider_service]

    def close(self) -> None:
        for service in self.leaves:
            service.flush()


def make_key_manager(
    mode: str, *, rng_seed: int = 7, km_batch_size: int = 1024
) -> TedKeyManager:
    """A TED key manager at one of the paper's operating points."""
    if mode == "mle":
        # One key per content: an (effectively) infinite threshold keeps
        # the seed index at 0 for every frequency, i.e. plain MLE.
        return TedKeyManager(
            secret=b"harness", t=10**9, probabilistic=False
        )
    if mode == "bted":
        return TedKeyManager(
            secret=b"harness",
            t=5,
            sketch_width=_SKETCH_WIDTH,
            rng=random.Random(rng_seed),
        )
    if mode == "fted":
        return TedKeyManager(
            secret=b"harness",
            blowup_factor=1.05,
            batch_size=km_batch_size,
            sketch_width=_SKETCH_WIDTH,
            rng=random.Random(rng_seed),
        )
    raise ValueError(f"unknown mode: {mode!r}")


def make_deployment(
    mode: str,
    directory,
    *,
    workers: int = 1,
    cache_capacity: int = 0,
    client_batch_size: int = 500,
    km_batch_size: int = 1024,
    rng_seed: int = 7,
    oracle: bool = False,
    key_manager_wrap=None,
    provider_wrap=None,
) -> Deployment:
    """Build one deployment rooted at ``directory``.

    ``oracle`` swaps the client for the straight-line reference (which
    has no batches, workers, or cache — those arguments are then
    unused).
    ``key_manager_wrap`` / ``provider_wrap`` optionally wrap the local
    transports (fault injectors, tracing shims) before the client sees
    them — the stored-state contract must hold through them too.
    """
    directory = Path(directory)
    ted = make_key_manager(
        mode, rng_seed=rng_seed, km_batch_size=km_batch_size
    )
    key_service = KeyManagerService(ted)
    provider_service = ProviderService(directory=directory)
    key_transport = LocalKeyManager(key_service)
    provider = provider_transport = LocalProvider(provider_service)
    if key_manager_wrap is not None:
        key_transport = key_manager_wrap(key_transport)
    if provider_wrap is not None:
        provider_transport = provider_wrap(provider_transport)
    cache = (
        FingerprintCache(capacity=cache_capacity)
        if cache_capacity > 0
        else None
    )
    common = dict(
        master_key=b"\x01" * 32,
        profile=get_profile("shactr"),
        sketch_rows=4,
        sketch_width=_SKETCH_WIDTH,
    )
    if oracle:
        client = ReferenceClient(key_transport, provider_transport, **common)
    else:
        client = TedStoreClient(
            key_transport,
            provider_transport,
            batch_size=client_batch_size,
            workers=workers,
            fingerprint_cache=cache,
            **common,
        )
    return Deployment(
        mode=mode,
        directory=directory,
        ted=ted,
        key_service=key_service,
        provider_service=provider_service,
        client=client,
        provider=provider,
    )


def make_sharded_deployment(
    mode: str,
    directory,
    shards: int,
    *,
    ring_seed: int = 0,
    workers: int = 1,
    client_batch_size: int = 500,
    km_batch_size: int = 1024,
    rng_seed: int = 7,
    key_manager_wrap=None,
    provider_wrap=None,
) -> Deployment:
    """Build an N-shard deployment rooted at ``directory``.

    ``shards == 1`` builds the plain single-engine deployment (no ring,
    today's on-disk layout) so the parity gate proves byte-compatibility
    of the N=1 path for free. For N > 1 the key manager is a
    :class:`~repro.tedstore.sharding.ShardedKeyManager` front over N
    sketch shards and the provider is a :class:`LocalFleet` — N
    provider leaves under ``shards/<k>/`` behind the fleet client's
    routing — and ``Deployment.ted`` is the *front* key manager, so
    every existing state probe (``sketch_state``'s ``t``/requests/
    tracked map) reads the authoritative copy.
    """
    if shards == 1:
        return make_deployment(
            mode,
            directory,
            workers=workers,
            client_batch_size=client_batch_size,
            km_batch_size=km_batch_size,
            rng_seed=rng_seed,
            key_manager_wrap=key_manager_wrap,
            provider_wrap=provider_wrap,
        )
    from repro.tedstore.ring import HashRing
    from repro.tedstore.sharding import ShardedKeyManager

    directory = Path(directory)
    ted = make_key_manager(
        mode, rng_seed=rng_seed, km_batch_size=km_batch_size
    )
    key_service = ShardedKeyManager(
        ted, HashRing.build(shards, seed=ring_seed)
    )
    fleet = LocalFleet(directory, HashRing.build(shards, seed=ring_seed))
    key_transport = LocalKeyManager(key_service)
    provider = provider_transport = fleet.transport()
    if key_manager_wrap is not None:
        key_transport = key_manager_wrap(key_transport)
    if provider_wrap is not None:
        provider_transport = provider_wrap(provider_transport)
    client = TedStoreClient(
        key_transport,
        provider_transport,
        profile=get_profile("shactr"),
        sketch_width=_SKETCH_WIDTH,
        batch_size=client_batch_size,
        workers=workers,
    )
    return Deployment(
        mode=mode,
        directory=directory,
        ted=ted,
        key_service=key_service,
        provider_service=None,
        client=client,
        provider=provider,
        fleet=fleet,
    )


def run_workload(
    deployment: Deployment, files: Sequence[Tuple[str, Sequence[bytes]]]
) -> List[UploadResult]:
    """Upload every (name, chunks) file in order."""
    return [
        deployment.client.upload_chunks(name, list(chunks))
        for name, chunks in files
    ]


def make_workload(
    *,
    files: int = 2,
    chunks_per_file: int = 1200,
    distinct_blocks: int = 40,
    block_bytes: int = 3000,
    seed: int = 1,
) -> List[Tuple[str, List[bytes]]]:
    """A deterministic duplicate-heavy workload (chunks repeat heavily)."""
    rng = random.Random(seed)
    blocks = [rng.randbytes(block_bytes) for _ in range(distinct_blocks)]
    return [
        (
            f"file-{index}",
            [
                blocks[rng.randrange(distinct_blocks)]
                for _ in range(chunks_per_file)
            ],
        )
        for index in range(files)
    ]


# -- state snapshots ----------------------------------------------------------


def provider_state(deployment: Deployment) -> Dict[str, object]:
    """Everything durable at the provider, hashed file by file."""
    deployment.provider_service.flush()
    file_hashes = {}
    for path in sorted(deployment.directory.rglob("*")):
        if path.is_file():
            parts = path.relative_to(deployment.directory).parts
            # The durable recipe store holds *sealed* blobs, and sealing
            # uses a random nonce — never byte-comparable across runs.
            # Recipe equivalence is asserted over the plaintext instead
            # (recipes_state).
            if parts[0] == "recipes":
                continue
            file_hashes["/".join(parts)] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return {
        "files": file_hashes,
        "counters": dict(deployment.provider_service.stats()),
    }


def recipes_state(
    deployment: Deployment, file_names: Sequence[str]
) -> Dict[str, Tuple[str, str]]:
    """Recipe *plaintext* digests per file.

    Sealing uses a random nonce, so the sealed bytes are never
    comparable across runs; the confidentiality-irrelevant plaintext
    (ciphertext fingerprints, sizes, per-chunk keys) is what equivalence
    is defined over.
    """
    master_key = deployment.client.master_key
    return {
        name: _recipe_digests(
            master_key,
            deployment.provider.get_recipes(GetRecipes(file_name=name)),
        )
        for name in file_names
    }


def _recipe_digests(master_key: bytes, recipes) -> Tuple[str, str]:
    """SHA-256 of the unsealed file and key recipes."""
    from repro.storage.recipe import unseal

    return (
        hashlib.sha256(
            unseal(master_key, recipes.sealed_file_recipe)
        ).hexdigest(),
        hashlib.sha256(
            unseal(master_key, recipes.sealed_key_recipe)
        ).hexdigest(),
    )


def sketch_state(deployment: Deployment) -> Dict[str, object]:
    """The key manager's complete tunable-dedup state."""
    ted = deployment.ted
    # .tobytes() captures every counter exactly; repr() of a large numpy
    # array elides values and would compare truncated summaries.
    counters = hashlib.sha256(
        ted.sketch._counters.tobytes()
    ).hexdigest()
    frequencies = hashlib.sha256(
        repr(sorted(ted._freq_by_identity.items())).encode()
    ).hexdigest()
    return {
        "sketch_counters": counters,
        "sketch_total": ted.sketch.total,
        "t": ted.t,
        "tracked_frequencies": frequencies,
        "requests": ted.stats.requests,
    }


# -- shard-parity probes (DESIGN.md §15) --------------------------------------
#
# A sharded deployment must be *logically* identical to the single-engine
# one: same chunks under the same cipher fingerprints (just distributed),
# same recipes, and sketch state whose per-shard pieces sum exactly to
# the single sketch. The probes below express each side in a
# placement-independent form so N=1 and N=k compare with plain ``==``.


def chunk_union_state(deployment: Deployment) -> Dict[str, str]:
    """``fingerprint-hex -> chunk digest`` union over all leaf engines.

    Also asserts the routing invariant: no fingerprint may appear in two
    leaves under one ring epoch (double storage would silently erode the
    dedup ratio the paper's Eq. 1 measures).
    """
    deployment.close()
    union: Dict[str, str] = {}
    for leaf in (service.engine for service in deployment.leaves):
        for fingerprint, _location in leaf.index.items():
            key = fingerprint.hex()
            assert key not in union, (
                f"fingerprint {key} stored by two shards "
                f"({deployment.mode})"
            )
            union[key] = hashlib.sha256(
                leaf.load(fingerprint)
            ).hexdigest()
    return union


def union_sketch_state(deployment: Deployment) -> Dict[str, object]:
    """Placement-independent key-manager state.

    Single KM: exactly :func:`sketch_state`. Sharded KM: the elementwise
    *sum* of the per-shard Count-Min counter matrices — each identity is
    routed to exactly one shard, so summing reassembles the single
    sketch with no double counting, keeping Eqs. 2-4's frequency
    estimates exact. ``t``/requests/tracked map read from the front,
    which owns them.
    """
    observers = getattr(deployment.key_service, "shard_key_managers", None)
    if observers is None:
        return sketch_state(deployment)
    summed = None
    total = 0
    for observer in observers().values():
        shard_sketch = observer.sketch
        total += shard_sketch.total
        if summed is None:
            summed = shard_sketch._counters.copy()
        else:
            summed += shard_sketch._counters
    ted = deployment.ted
    return {
        "sketch_counters": hashlib.sha256(summed.tobytes()).hexdigest(),
        "sketch_total": total,
        "t": ted.t,
        "tracked_frequencies": hashlib.sha256(
            repr(sorted(ted._freq_by_identity.items())).encode()
        ).hexdigest(),
        "requests": ted.stats.requests,
    }


#: Provider counters that are placement artifacts, not logical state:
#: container counts differ with shard boundaries, every leaf
#: materializes the default tenant, and only the fleet client reports
#: its shards.
_PLACEMENT_COUNTERS = (
    "containers",
    "tenants",
    "fleet_shards",
    "fleet_shards_reachable",
)


def assert_shard_parity(
    single: Deployment,
    sharded: Deployment,
    file_names: Sequence[str],
) -> None:
    """Assert an N-shard deployment is logically identical to N=1.

    Per-fingerprint chunk bytes, recipe plaintexts, logical dedup
    counters, and the (reassembled) sketch state must all match; only
    placement artifacts (container counts, ring metadata) may differ.
    """
    assert chunk_union_state(single) == chunk_union_state(sharded), (
        f"chunk union diverged ({single.mode})"
    )
    assert recipes_state(single, file_names) == recipes_state(
        sharded, file_names
    ), f"recipes diverged ({single.mode})"
    assert union_sketch_state(single) == union_sketch_state(sharded), (
        f"sketch state diverged ({single.mode}): "
        f"{union_sketch_state(single)} != {union_sketch_state(sharded)}"
    )
    single_counters = dict(single.provider.stats())
    sharded_counters = dict(sharded.provider.stats())
    for key in _PLACEMENT_COUNTERS:
        single_counters.pop(key, None)
        sharded_counters.pop(key, None)
    assert single_counters == sharded_counters, (
        f"provider counters diverged ({single.mode}): "
        f"{single_counters} != {sharded_counters}"
    )


# -- equivalence assertion ----------------------------------------------------

#: Provider counters that legitimately shrink when the client-side
#: fingerprint cache short-circuits duplicate uploads.
_OFFERED_COUNTERS = ("logical_chunks", "logical_bytes", "duplicate_chunks")


def assert_equivalent(
    baseline: Deployment,
    candidate: Deployment,
    file_names: Sequence[str],
    baseline_results: Optional[Sequence[UploadResult]] = None,
    candidate_results: Optional[Sequence[UploadResult]] = None,
    *,
    ignore_offered_counters: bool = False,
) -> None:
    """Assert the two deployments hold bit-identical durable state.

    With ``ignore_offered_counters`` (cache-enabled candidate), offered
    chunk counters may differ at the provider; the dedup ratio is then
    reconciled from client-side accounting, which must match the
    baseline's exactly.
    """
    base_provider = provider_state(baseline)
    cand_provider = provider_state(candidate)
    assert base_provider["files"] == cand_provider["files"], (
        "provider on-disk state diverged "
        f"({baseline.mode}): {_diff_keys(base_provider['files'], cand_provider['files'])}"
    )
    base_counters = dict(base_provider["counters"])
    cand_counters = dict(cand_provider["counters"])
    if ignore_offered_counters:
        for key in _OFFERED_COUNTERS:
            base_counters.pop(key, None)
            cand_counters.pop(key, None)
    assert base_counters == cand_counters, (
        f"provider counters diverged ({baseline.mode}): "
        f"{base_counters} != {cand_counters}"
    )
    assert recipes_state(baseline, file_names) == recipes_state(
        candidate, file_names
    ), f"sealed recipes diverged ({baseline.mode})"
    assert sketch_state(baseline) == sketch_state(candidate), (
        f"key-manager sketch state diverged ({baseline.mode}): "
        f"{sketch_state(baseline)} != {sketch_state(candidate)}"
    )
    if baseline_results is not None and candidate_results is not None:
        base_acct = [
            (r.chunk_count, r.logical_bytes, r.stored_chunks,
             r.stored_chunks + r.duplicate_chunks)
            for r in baseline_results
        ]
        cand_acct = [
            (r.chunk_count, r.logical_bytes, r.stored_chunks,
             r.stored_chunks + r.duplicate_chunks)
            for r in candidate_results
        ]
        assert base_acct == cand_acct, (
            f"client-side accounting diverged ({baseline.mode}): "
            f"{base_acct} != {cand_acct}"
        )
        for result in candidate_results:
            assert (
                result.stored_chunks + result.duplicate_chunks
                == result.chunk_count
            ), f"accounting invariant broken: {result}"


def _diff_keys(a: Dict[str, str], b: Dict[str, str]) -> str:
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    changed = sorted(k for k in set(a) & set(b) if a[k] != b[k])
    return (
        f"only-baseline={only_a} only-candidate={only_b} changed={changed}"
    )


# -- multi-tenant isolation gate (DESIGN.md §13) -------------------------------
#
# With cross-user dedup *off*, every tenant owns a private dedup engine
# under ``tenants/<id>/``, so a tenant's durable bytes are a function of
# its own upload sequence alone — concurrent interleaving with other
# tenants must not change a single byte. The gate below makes that
# executable: run N tenants concurrently against one provider, run the
# same N workloads serially against N fresh single-tenant providers, and
# compare each tenant's subtree byte for byte.


def make_tenant_workloads(
    tenants: Sequence[str],
    *,
    files_per_tenant: int = 2,
    chunks_per_file: int = 400,
    shared_blocks: int = 24,
    private_blocks: int = 8,
    block_bytes: int = 2048,
    seed: int = 11,
) -> Dict[str, List[Tuple[str, List[bytes]]]]:
    """Deterministic per-tenant workloads with heavy cross-tenant overlap.

    Every tenant draws most chunks from one shared block pool (so the
    cross-user-dedup-on mode has duplicates to collapse) plus a small
    private pool (so per-tenant state is distinguishable). Each tenant's
    sequence depends only on its own name, never on the other tenants.
    """
    rng = random.Random(seed)
    shared = [rng.randbytes(block_bytes) for _ in range(shared_blocks)]
    workloads: Dict[str, List[Tuple[str, List[bytes]]]] = {}
    for tenant in tenants:
        tenant_rng = random.Random(f"{seed}:{tenant}")
        private = [
            tenant_rng.randbytes(block_bytes) for _ in range(private_blocks)
        ]
        pool = shared + private
        workloads[tenant] = [
            (
                f"{tenant}-file-{index}",
                [
                    pool[tenant_rng.randrange(len(pool))]
                    for _ in range(chunks_per_file)
                ],
            )
            for index in range(files_per_tenant)
        ]
    return workloads


def make_tenant_client(
    provider_service: ProviderService, tenant: str, *, rng_seed: int = 7
) -> TedStoreClient:
    """A serial client bound to ``tenant`` with its own key manager.

    Each tenant gets a private key-manager instance (its own sketch and
    seeds), so key derivation depends only on that tenant's upload
    sequence — a prerequisite for the byte-identical isolation gate.
    The per-tenant master key mirrors a real deployment (REED's
    per-tenant key boundary).
    """
    ted = make_key_manager("bted", rng_seed=rng_seed)
    return TedStoreClient(
        LocalKeyManager(KeyManagerService(ted)),
        LocalProvider(provider_service, tenant=tenant),
        master_key=hashlib.sha256(tenant.encode()).digest(),
        profile=get_profile("shactr"),
        sketch_width=_SKETCH_WIDTH,
        batch_size=500,
    )


def run_tenants(
    provider_service: ProviderService,
    workloads: Dict[str, List[Tuple[str, List[bytes]]]],
    *,
    concurrent: bool,
    rng_seed: int = 7,
) -> None:
    """Run every tenant's workload, in parallel threads or serially."""
    import threading

    errors: List[BaseException] = []

    def one(tenant: str) -> None:
        try:
            client = make_tenant_client(
                provider_service, tenant, rng_seed=rng_seed
            )
            for name, chunks in workloads[tenant]:
                client.upload_chunks(name, list(chunks))
        except BaseException as exc:  # surfaced to the caller
            errors.append(exc)

    if concurrent:
        threads = [
            threading.Thread(target=one, args=(tenant,))
            for tenant in workloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        for tenant in workloads:
            one(tenant)
    if errors:
        raise errors[0]
    provider_service.flush()


def tenant_subtree_state(root: Path) -> Dict[str, str]:
    """Hash every durable file under one tenant's storage subtree.

    The ``recipes/`` store is excluded for the same reason as in
    :func:`provider_state`: sealing uses a random nonce, so sealed bytes
    are never comparable across runs — recipe equivalence is asserted
    over plaintext digests (:func:`tenant_recipes_state`).
    """
    hashes: Dict[str, str] = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            parts = path.relative_to(root).parts
            if parts[0] == "recipes":
                continue
            hashes["/".join(parts)] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return hashes


def tenant_recipes_state(
    provider_service: ProviderService,
    tenant: str,
    file_names: Sequence[str],
) -> Dict[str, Tuple[str, str]]:
    """Per-file recipe *plaintext* digests in one tenant's namespace."""
    master_key = hashlib.sha256(tenant.encode()).digest()
    return {
        name: _recipe_digests(
            master_key,
            provider_service.handle_get_recipes(
                GetRecipes(file_name=name), tenant=tenant
            ),
        )
        for name in file_names
    }
