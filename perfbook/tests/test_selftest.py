"""Self-test of the benchmark harness at smoke size.

Run explicitly (tier-1's ``testpaths`` does not include it):

    python -m pytest perfbook/tests -q
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from pathlib import Path

import pytest

PERFBOOK = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBOOK))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02
SPEC = json.loads((PERFBOOK.parent / "BENCHMARK.json").read_text())


def _quiet(*_args) -> None:
    pass


def test_smoke_emits_exactly_the_declared_metrics():
    """All workloads, both modes: every declared metric and no other."""
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    started = time.monotonic()
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(
                name, 2013, 0.01, trace, scale=SCALE, log=_quiet
            )
            assert result["correct"], (name, trace)
            assert result["failed"] == 0
            assert result["attempted"] >= 4
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(result["metrics"]) == set(declared)
            for metric, entry in result["metrics"].items():
                assert entry["unit"] == declared[metric]
            if not trace:
                assert all(
                    entry["value"] > 0 for entry in result["metrics"].values()
                )
    assert time.monotonic() - started < 60
    assert not list(run.WORK_DIR.glob("round-*"))


def test_corrupted_restore_is_counted_and_fails_the_run():
    result = run.run_workload(
        "fresh_inproc", 7, 0.01, False, scale=SCALE, corrupt_restore=0,
        log=_quiet,
    )
    assert result["failed"] == 1
    assert not result["correct"]


def test_same_seed_same_counts_other_seed_other_counts():
    """The determinism check compares rounds; here, whole runs."""
    def exact(seed):
        result = run.run_workload(
            "incremental_tcp", seed, 0.01, False, scale=0.05, log=_quiet
        )
        assert result["correct"]
        return [
            result["metrics"][name]["value"]
            for name in (
                "storage_blowup",
                "cipher_entropy_bits",
                "disk_bytes_per_user_byte",
            )
        ]

    assert exact(5) == exact(5)
    assert exact(5) != exact(6)


def test_failed_run_leaves_nothing_behind(monkeypatch):
    """No process, no listening port, no directory after a failure."""
    workload = WORKLOADS["smallfiles_fleet"]
    started = []
    build = workload.deployment

    def capture(root, seed, trace):
        started.append(build(root, seed, trace))
        return started[-1]

    def fail(harness, seed, scale):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workload, "deployment", capture)
    monkeypatch.setattr(workload, "run", fail)
    with pytest.raises(RuntimeError, match="injected failure"):
        run.run_workload(workload.name, 1, 0.01, False, scale=SCALE, log=_quiet)

    (deployment,) = started
    assert len(deployment.children) == 7
    for child in deployment.children:
        with pytest.raises(ProcessLookupError):
            os.killpg(child.proc.pid, 0)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(child.address, timeout=1).close()
    assert not deployment.root.exists()
