"""Timing helpers for the performance experiments (Experiments B.1/B.4).

The paper reports per-step compute-time breakdowns (Tables 1 and 2). The
``StageTimer`` accumulates wall-clock time per named stage so the TEDStore
client and key manager can attribute time to chunking, fingerprinting,
hashing, key seeding, key derivation, encryption, and write steps.

Every stage exit is also observed on the ``ted_stage_seconds`` histogram
of the metrics registry (labelled by stage name — a small, bounded set),
so the per-step latency *distribution* is available alongside the paper's
per-step totals (DESIGN.md §9).

A ``StageTimer`` is thread-safe: the client's encrypt and decrypt
workers charge the one timer directly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.obs import metrics as obs_metrics

_STAGE_SECONDS = obs_metrics.get_registry().histogram(
    "ted_stage_seconds",
    "Per-stage latency of pipeline stage executions",
    labelnames=("stage",),
)


class Stopwatch:
    """A restartable wall-clock stopwatch based on ``time.perf_counter``."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def restart(self) -> None:
        """Reset the stopwatch to zero."""
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Return seconds elapsed since construction or last restart."""
        return time.perf_counter() - self._start


class StageTimer:
    """Accumulates elapsed time per named stage.

    Example:
        >>> timer = StageTimer()
        >>> with timer.stage("encryption"):
        ...     pass
        >>> timer.total("encryption") >= 0.0
        True
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._lock = threading.Lock()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager that attributes elapsed time to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.add(name, elapsed)
            _STAGE_SECONDS.labels(stage=name).observe(elapsed)

    def add(self, name: str, seconds: float) -> None:
        """Manually add elapsed seconds to a stage."""
        with self._lock:
            self._totals[name] = self._totals.get(name, 0.0) + seconds

    def total(self, name: str) -> float:
        """Return accumulated seconds for a stage (0.0 if never entered)."""
        return self._totals.get(name, 0.0)

    def totals(self) -> Dict[str, float]:
        """Return a copy of all accumulated stage totals."""
        with self._lock:
            return dict(self._totals)

    def reset(self) -> None:
        """Drop all accumulated totals."""
        with self._lock:
            self._totals.clear()
