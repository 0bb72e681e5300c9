"""Experiment B.5 (Figure 9): upload/download speeds across a snapshot
series, with dedup, the LSM fingerprint index, and containers all on disk.

Uploads a multi-snapshot series (one user's backups in creation order) into
one shared provider, then downloads every snapshot. The paper's shapes:
upload speed stays roughly stable while the index grows (LevelDB/LSM
compaction overhead keeps it from improving despite rising dedup ratios),
and download speed *declines* for later snapshots because their chunks are
fragmented across containers written by earlier snapshots (more container
opens and scattered reads per restored MB).

Also runs the DESIGN.md §6 ablation: the LSM index vs a single-table
configuration with compaction effectively disabled.
"""

import tempfile

from conftest import BENCH_SCALE, print_table

from repro.analysis.perf import experiment_b5
from repro.traces.synthetic import SyntheticTraceGenerator, TraceConfig


def _series(name, seed, snapshots=6):
    config = TraceConfig(
        name=name,
        files_per_snapshot=max(8, int(120 * BENCH_SCALE)),
        file_copy_prob=0.4,
        popular_pool_size=2000,
        popular_prob=0.25,
        zipf_s=1.6,
        modify_prob=0.25,
        growth_files=6,
    )
    generator = SyntheticTraceGenerator(config, "u0", seed)
    return [generator.snapshot(f"{name}/snap{i:02d}") for i in range(snapshots)]


def _report(points, label):
    rows = [
        {
            "snapshot": i + 1,
            "upload (MB/s)": round(p.upload_mb_s, 2),
            "download (MB/s)": round(p.download_mb_s, 2),
        }
        for i, p in enumerate(points)
    ]
    print_table(f"Figure 9 ({label}): upload/download speeds", rows)


def test_b5_fsl_series(benchmark):
    snapshots = _series("b5fsl", seed=21)
    points = benchmark.pedantic(
        experiment_b5,
        args=(snapshots,),
        kwargs={
            "directory": tempfile.mkdtemp(prefix="repro-b5-"),
            "batch_size": 2000,
            "container_bytes": 1 << 20,
        },
        rounds=1,
        iterations=1,
    )
    _report(points, "FSL-like series")
    assert all(p.upload_mb_s > 0 for p in points)
    # Restores of later snapshots must not be faster than the first restore
    # on average — fragmentation pulls the tail down (paper Figure 9).
    first = points[0].download_mb_s
    tail = sum(p.download_mb_s for p in points[-2:]) / 2
    assert tail <= first * 1.5  # noisy at this scale; no *improvement* trend


def test_b5_index_ablation(benchmark):
    # DESIGN.md §6: LSM compaction cost vs an effectively compaction-free
    # configuration (huge memtable, never flushed mid-series).
    snapshots = _series("b5abl", seed=22, snapshots=4)

    def run():
        lsm = experiment_b5(
            snapshots,
            directory=tempfile.mkdtemp(prefix="repro-b5l-"),
            batch_size=2000,
            container_bytes=1 << 20,
            kvstore_options={"memtable_bytes": 1 << 13, "compaction_trigger": 2},
        )
        flat = experiment_b5(
            snapshots,
            directory=tempfile.mkdtemp(prefix="repro-b5f-"),
            batch_size=2000,
            container_bytes=1 << 20,
            kvstore_options={"memtable_bytes": 1 << 28},
        )
        return lsm, flat

    lsm, flat = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "snapshot": i + 1,
            "LSM upload (MB/s)": round(a.upload_mb_s, 2),
            "no-compaction upload (MB/s)": round(b.upload_mb_s, 2),
        }
        for i, (a, b) in enumerate(zip(lsm, flat))
    ]
    print_table("Ablation: index compaction cost on upload speed", rows)
    lsm_mean = sum(p.upload_mb_s for p in lsm) / len(lsm)
    flat_mean = sum(p.upload_mb_s for p in flat) / len(flat)
    print(f"mean upload: LSM {lsm_mean:.2f} MB/s vs no-compaction {flat_mean:.2f} MB/s")
    assert lsm_mean > 0 and flat_mean > 0
