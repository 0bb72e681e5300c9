#!/usr/bin/env python3
"""perfbook: TEDStore's end-to-end and per-layer benchmark.

    python3 perfbook/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's deployment from source, runs its fixed,
seed-determined operation list in rounds until S seconds of timed phases
are used, checks every restore against the SHA-256 of what was uploaded,
prints every metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exit code 1 means an operation failed or a check did not hold.

Without ``--workload`` it runs all three, each in a process of its own
(peak memory and the metrics registry are per process). ``--out`` appends
each result to a JSON file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
if not (CHECKOUT / "src" / "repro").is_dir():
    sys.exit(f"perfbook: no src/repro in {CHECKOUT}; run it from a checkout")
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(HERE))

# The batched kernels are the shipped configuration; a stray override in
# the caller's environment must not change what is measured.
os.environ.pop("REPRO_KERNELS", None)

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = CHECKOUT / ".perfbook_work"
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def declared() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    return {
        kind: {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=CHECKOUT,
            # A checkout that is not a repository must not find one above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(CHECKOUT.parent)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    corrupt_restore: Optional[int] = None,
    log=print,
) -> Dict[str, object]:
    """Run one workload; returns the result object of the last line."""
    workload = WORKLOADS[name]
    units = declared()["per_layer" if trace else "end_to_end"]
    rounds: List[measure.Round] = []
    timed_s = 0.0
    # A traced run alternates untraced and traced rounds (at least one of
    # each), so that the cost of tracing is measured within the run.
    while timed_s < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1
        round_ = measure.run_round(
            workload, seed, scale, traced, WORK_DIR, corrupt_restore
        )
        rounds.append(round_)
        timed_s += round_.timed_s
        log(
            f"round {len(rounds)} ({'traced' if traced else 'untraced'}): "
            f"set-up {round_.setup_s:.2f} s, timed {round_.timed_s:.2f} s, "
            f"{round_.attempted} ops, {round_.failed} failed"
        )
        for error in round_.errors[:10]:
            log(f"  FAILED {error}")

    untraced = [r for r in rounds if not r.traced]
    # One client thread: the same seed must give the same counts.
    drift = (
        measure.determinism_errors(rounds) if workload.single_threaded else []
    )
    errors = [e for r in rounds for e in r.errors] + drift
    if trace:
        metrics = measure.per_layer_metrics(
            [r for r in rounds if r.traced], untraced
        )
    else:
        metrics = measure.end_to_end_metrics(untraced)
    if set(metrics) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )

    uploads = sum(len(r.upload_seconds) for r in untraced)
    restores = sum(len(r.restore_seconds) for r in untraced)
    log(
        f"{name}: seed {seed}, scale {scale:g}, {len(rounds)} rounds, "
        f"latency samples: {uploads} uploads, {restores} restores"
    )
    log(f"t trajectory (FTED, b = 1.05): 1 -> {rounds[-1].t_history}")
    for metric in sorted(metrics):
        log(f"  {metric:38s} {metrics[metric]:>16.6g} {units[metric]}")
    if trace and metrics["trace.accounted_ratio"] < 0.9:
        log("  warning: trace.accounted_ratio is below the 0.9 target")
    for error in drift:
        log(f"  FAILED {error}")
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def append_result(path: Path, entry: Dict[str, object]) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({"runs": runs + [entry]}, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"])
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1]
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplies every workload's operation count (smoke runs)",
    )
    parser.add_argument("--out", type=Path, help="append results to FILE")
    args = parser.parse_args(argv)

    if args.workload is None:
        passed_on = list(sys.argv[1:] if argv is None else argv)
        return max(
            subprocess.run(
                [sys.executable, __file__, "--workload", name, *passed_on]
            ).returncode
            for name in WORKLOADS
        )

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit(),
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    print(f"perfbook: seed {args.seed}, commit {stamp['commit']}")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    if args.out:
        append_result(args.out, {**stamp, **result})
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
