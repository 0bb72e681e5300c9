#!/usr/bin/env python3
"""Compare two sets of perfbook runs, one row per (workload, metric).

    python3 perfbook/compare.py A.json B.json

A and B are files written by ``run.py --out`` (each may hold many runs,
e.g. ten seeds per workload). For every end-to-end metric the table gives
both medians, B's ratio to A (A is the base), each side's spread (the
distance between the quartiles as a share of the median, needing at
least two runs) and the metric's bound from ``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  a side's spread is wider than the bound, so the runs
                  cannot tell a change of that size from noise;
* ``ok``          otherwise.

Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): values}`` over a file's untraced runs."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(
                entry["value"]
            )
    return values


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(SPEC.read_text())
    side_a, side_b = load(argv[0]), load(argv[1])
    print(
        f"{'workload':17s} {'metric':25s} {'A':>11s} {'B':>11s} "
        f"{'B/A':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict"
    )
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a or key not in side_b:
                continue
            a = statistics.median(side_a[key])
            b = statistics.median(side_b[key])
            bound = metric["bound"]
            loss = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            spread_a, spread_b = spread(side_a[key]), spread(side_b[key])
            if loss > bound:
                verdict = "worse"
                worse = True
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:17s} {metric['name']:25s} {a:11.5g} {b:11.5g} "
                f"{b / a:7.3f} {spread_a:8.1%} {spread_b:8.1%} "
                f"{bound:6.0%}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
