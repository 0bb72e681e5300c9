"""Differential proof: every upload scheduling ≡ the straight-line oracle.

For each of the paper's operating points (MLE, BTED, FTED) the client —
inline at ``workers=1``, threaded at ``workers=4``, with a process pool
at ``crypto_workers=2`` — must leave the provider and the key manager in
*bit-identical* state to :class:`tests.harness.reference.ReferenceClient`.
These tests execute that contract through
:mod:`tests.harness.differential` against real on-disk providers.
"""

from __future__ import annotations

import pytest

from repro.tedstore.faults import FaultPlan, FaultyKeyManager, FaultyProvider

from tests.harness.differential import (
    MODES,
    assert_equivalent,
    make_deployment,
    make_workload,
    run_workload,
)

# A workload with real duplicate pressure: ~40 distinct blocks behind
# ~2600 chunk references across two files, so every mode exercises both
# the dedup fast path and (for FTED) several server-side retune points.
WORKLOAD = make_workload(
    files=2, chunks_per_file=1300, distinct_blocks=40, seed=11
)
FILE_NAMES = [name for name, _ in WORKLOAD]

#: The schedulings under test: inline, threaded, threaded + process pool.
SCHEDULINGS = {
    "workers1": dict(workers=1),
    "workers4": dict(workers=4, pipeline_depth=2),
    "crypto2": dict(crypto_workers=2),
}


def _run(tmp_path, mode, **client_kwargs):
    deployment = make_deployment(mode, tmp_path, **client_kwargs)
    results = run_workload(deployment, WORKLOAD)
    deployment.close()
    return deployment, results


@pytest.fixture(scope="module")
def oracle_runs(tmp_path_factory):
    """One oracle run per mode, shared by the module."""
    runs = {}

    def get(mode):
        if mode not in runs:
            runs[mode] = _run(
                tmp_path_factory.mktemp(f"oracle-{mode}"), mode, oracle=True
            )
        return runs[mode]

    return get


@pytest.mark.parametrize("scheduling", SCHEDULINGS)
@pytest.mark.parametrize("mode", MODES)
def test_matches_oracle_bit_for_bit(tmp_path, oracle_runs, mode, scheduling):
    """No cache: strictly identical state *and* counters."""
    oracle, oracle_results = oracle_runs(mode)
    candidate, results = _run(tmp_path, mode, **SCHEDULINGS[scheduling])
    assert_equivalent(oracle, candidate, FILE_NAMES, oracle_results, results)
    # Without a cache nothing is resolved client-side.
    assert all(r.cache_hits == 0 for r in results)
    for name, chunks in WORKLOAD:
        assert candidate.client.download(name) == b"".join(chunks)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("mode", MODES)
def test_cached_upload_matches_oracle_storage(
    tmp_path, oracle_runs, mode, workers
):
    """The fingerprint cache may skip PUTs, never change stored bytes."""
    oracle, oracle_results = oracle_runs(mode)
    cached, cached_results = _run(
        tmp_path, mode, workers=workers, cache_capacity=8192
    )
    assert_equivalent(
        oracle,
        cached,
        FILE_NAMES,
        oracle_results,
        cached_results,
        ignore_offered_counters=True,
    )
    # The workload is duplicate-heavy, so the cache must actually fire —
    # otherwise this test would pass vacuously.
    assert sum(r.cache_hits for r in cached_results) > 0
    cache = cached.client.fingerprint_cache
    assert cache is not None and cache.hits == sum(
        r.cache_hits for r in cached_results
    )
    for name, chunks in WORKLOAD:
        assert cached.client.download(name) == b"".join(chunks)


@pytest.mark.parametrize("workers", [1, 4])
def test_delay_faults_jitter_interleavings_not_state(
    tmp_path, oracle_runs, workers
):
    """Injected delays reorder thread wakeups, never stored bytes: the
    delayed run must stay bit-identical to the clean oracle run."""
    delay_plan = FaultPlan(delay_rate=0.3, delay_seconds=0.002, seed=42)
    oracle, oracle_results = oracle_runs("fted")
    jittered, jitter_results = _run(
        tmp_path,
        "fted",
        workers=workers,
        pipeline_depth=2,
        client_batch_size=200,  # batch cuts differ from the oracle's too
        key_manager_wrap=lambda t: FaultyKeyManager(t, delay_plan),
        provider_wrap=lambda t: FaultyProvider(t, delay_plan),
    )
    assert_equivalent(
        oracle, jittered, FILE_NAMES, oracle_results, jitter_results
    )
    counters = jittered.client.provider.fault_counters
    assert counters["delays"] > 0  # the faults really fired
