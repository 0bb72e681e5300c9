"""Shard-parity differential gate (DESIGN.md §15).

An N-shard deployment — ring-routed KM sketch shards plus N provider
leaves (``ProviderService`` roots under ``shards/<k>/``) behind the
fleet client — must be *logically identical* to the single-engine
deployment for the same workload: the union of per-leaf chunks (per
cipher fingerprint), the recipe plaintexts, the summed provider
counters, and the reassembled sketch state (elementwise sum of the
per-shard Count-Min matrices) all byte-match N=1, for every one of the
paper's operating points, with and without transport delay faults.

N=1 additionally proves byte-compatibility of the unsharded path: a
one-shard deployment writes no ring config and the on-disk layout is
file-for-file identical to today's.
"""

from __future__ import annotations

import pytest

from repro.tedstore.faults import FaultPlan, FaultyKeyManager, FaultyProvider

from tests.harness.differential import (
    MODES,
    assert_shard_parity,
    chunk_union_state,
    make_sharded_deployment,
    make_workload,
    provider_state,
    run_workload,
    union_sketch_state,
)

SHARD_COUNTS = (2, 3, 5)

# Enough duplicate pressure that every shard sees traffic and FTED hits
# several retune points (km_batch_size=1024 against ~1800 chunks).
WORKLOAD = make_workload(
    files=2, chunks_per_file=900, distinct_blocks=32, seed=23
)
FILE_NAMES = [name for name, _ in WORKLOAD]

_DELAY_PLAN = dict(delay_rate=0.3, delay_seconds=0.002)


def _run(tmp_path, mode, shards, **kwargs):
    deployment = make_sharded_deployment(
        mode, tmp_path / f"n{shards}", shards, **kwargs
    )
    results = run_workload(deployment, WORKLOAD)
    deployment.close()
    return deployment, results


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_matches_single(tmp_path, mode, shards):
    single, single_results = _run(tmp_path, mode, 1)
    sharded, sharded_results = _run(tmp_path, mode, shards)
    assert_shard_parity(single, sharded, FILE_NAMES)
    # Client-visible accounting is placement-independent too.
    assert [
        (r.chunk_count, r.stored_chunks, r.duplicate_chunks)
        for r in single_results
    ] == [
        (r.chunk_count, r.stored_chunks, r.duplicate_chunks)
        for r in sharded_results
    ]


@pytest.mark.parametrize("mode", MODES)
def test_sharded_matches_single_under_delay_faults(tmp_path, mode):
    """Routing parity must survive transport delays (reordered wire timing)."""
    single, _ = _run(tmp_path, mode, 1)
    sharded, _ = _run(
        tmp_path,
        mode,
        3,
        key_manager_wrap=lambda t: FaultyKeyManager(
            t, FaultPlan(seed=42, **_DELAY_PLAN)
        ),
        provider_wrap=lambda t: FaultyProvider(
            t, FaultPlan(seed=43, **_DELAY_PLAN)
        ),
    )
    assert_shard_parity(single, sharded, FILE_NAMES)


@pytest.mark.parametrize("mode", MODES)
def test_n1_is_byte_compatible(tmp_path, mode):
    """shards=1 through the sharding-aware constructors = legacy layout."""
    legacy, _ = _run(tmp_path / "legacy", mode, 1)
    n1 = make_sharded_deployment(mode, tmp_path / "n1" / "n1", 1)
    run_workload(n1, WORKLOAD)
    n1.close()
    assert not (n1.directory / "ring.json").exists()
    assert not (n1.directory / "shards").exists()
    assert provider_state(legacy)["files"] == provider_state(n1)["files"]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_every_shard_sees_traffic(tmp_path, shards):
    """The workload is wide enough that no shard sits idle (balance sanity)."""
    sharded, _ = _run(tmp_path, "bted", shards)
    leaves = [service.engine for service in sharded.leaves]
    assert len(leaves) == shards
    assert all(leaf.stats.unique_chunks > 0 for leaf in leaves)
    union = chunk_union_state(sharded)
    assert sum(leaf.stats.unique_chunks for leaf in leaves) == len(union)
    state = union_sketch_state(sharded)
    assert state["sketch_total"] > 0
