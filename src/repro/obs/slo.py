"""SLO tracking: per-op latency/error targets, live windows, burn rates.

An :class:`SLO` declares what "healthy" means for one operation — a p99
latency target and/or a maximum error ratio, both judged over a sliding
window (:mod:`repro.obs.window`). The :class:`SLOTracker` ingests one
``observe(op, seconds, error=...)`` call per operation, keeps the
windowed state, and publishes the judgement as ordinary registry gauges
so SLO health rides every existing surface (Prometheus text, the wire
``stats`` message, ``repro stats``):

* ``ted_slo_window_p99_seconds{op=}`` — live windowed p99;
* ``ted_slo_error_ratio{op=}`` — windowed errors / operations;
* ``ted_slo_burn_rate{op=,kind=}`` — error-budget consumption rate
  (see below), ``kind`` ∈ {``latency``, ``error``};
* ``ted_slo_breached{op=}`` — 0/1, the gate the loadgen CLI exits on;
* ``ted_slo_breach_total{op=}`` — breach-transition counter.

**Burn rate** follows the SRE convention: how fast the error budget is
being spent, normalized so 1.0 means "exactly at target". For an error
SLO it is ``window_error_ratio / max_error_ratio``. For a p99 latency
SLO the budget is the 1% of requests allowed over the target, so the
burn is ``fraction_of_requests_over_target / 0.01``. A burn of 10 means
the budget for the window is being consumed ten times too fast.

Operations observed without a declared SLO still get windows and the
quantile/ratio gauges (the ``repro top`` view wants them) — they simply
can never breach.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs.window import WindowedCounter, WindowedHistogram

#: Tail fraction a p99 target budgets for: 1% of requests may exceed it.
_P99_BUDGET = 0.01

_REGISTRY = obs_metrics.get_registry()
_WINDOW_P99 = _REGISTRY.gauge(
    "ted_slo_window_p99_seconds",
    "Sliding-window p99 latency per tracked operation",
    labelnames=("op",),
)
_ERROR_RATIO = _REGISTRY.gauge(
    "ted_slo_error_ratio",
    "Sliding-window errors / operations per tracked operation",
    labelnames=("op",),
)
_BURN_RATE = _REGISTRY.gauge(
    "ted_slo_burn_rate",
    "Error-budget burn rate (1.0 = exactly at target)",
    labelnames=("op", "kind"),
)
_BREACHED = _REGISTRY.gauge(
    "ted_slo_breached",
    "1 while the operation is violating a declared SLO, else 0",
    labelnames=("op",),
)
_BREACHES = _REGISTRY.counter(
    "ted_slo_breach_total",
    "Healthy-to-breached transitions per operation",
    labelnames=("op",),
)


@dataclass(frozen=True)
class SLO:
    """Health targets for one operation, judged over a sliding window."""

    op: str
    p99_seconds: Optional[float] = None
    max_error_ratio: Optional[float] = None
    window_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.p99_seconds is None and self.max_error_ratio is None:
            raise ValueError(f"SLO for {self.op!r} declares no target")
        if self.p99_seconds is not None and self.p99_seconds <= 0:
            raise ValueError("p99_seconds must be positive")
        if self.max_error_ratio is not None and not (
            0.0 < self.max_error_ratio <= 1.0
        ):
            raise ValueError("max_error_ratio must be in (0, 1]")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")


@dataclass(frozen=True)
class SLOStatus:
    """One evaluation of one operation against its (possible) SLO."""

    op: str
    window_seconds: float
    count: int
    errors: int
    p50: float
    p95: float
    p99: float
    error_ratio: float
    latency_burn_rate: float
    error_burn_rate: float
    breached: bool
    reasons: tuple

    def describe(self) -> str:
        state = "BREACHED" if self.breached else "ok"
        detail = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        return (
            f"{self.op}: {state}{detail} — window p99 "
            f"{self.p99 * 1000:.1f}ms, errors {self.error_ratio:.2%} "
            f"over {self.count} ops"
        )


class _OpState:
    def __init__(
        self,
        window_seconds: float,
        clock: Callable[[], float],
    ) -> None:
        self.latency = WindowedHistogram(
            window_seconds=window_seconds, clock=clock
        )
        self.errors = WindowedCounter(
            window_seconds=window_seconds, clock=clock
        )
        self.over_target = WindowedCounter(
            window_seconds=window_seconds, clock=clock
        )
        self.breached = False


class SLOTracker:
    """Ingests per-operation outcomes and judges them against SLOs.

    Args:
        slos: declared targets; operations not listed are tracked
            (windows, gauges) but never breach.
        clock: monotonic-seconds source shared by all windows,
            injectable for tests.
        default_window_seconds: window for operations without a
            declared SLO.
    """

    def __init__(
        self,
        slos: Sequence[SLO] = (),
        clock: Callable[[], float] = time.monotonic,
        default_window_seconds: float = 10.0,
    ) -> None:
        self._slos: Dict[str, SLO] = {}
        for slo in slos:
            if slo.op in self._slos:
                raise ValueError(f"duplicate SLO for op {slo.op!r}")
            self._slos[slo.op] = slo
        self._clock = clock
        self._default_window = default_window_seconds
        self._states: Dict[str, _OpState] = {}
        self._lock = threading.Lock()

    def slo_for(self, op: str) -> Optional[SLO]:
        return self._slos.get(op)

    def _state(self, op: str) -> _OpState:
        with self._lock:
            state = self._states.get(op)
            if state is None:
                slo = self._slos.get(op)
                window = (
                    slo.window_seconds if slo else self._default_window
                )
                state = _OpState(window, self._clock)
                self._states[op] = state
            return state

    def observe(self, op: str, seconds: float, error: bool = False) -> None:
        """Record one finished operation (latency always, error flagged)."""
        state = self._state(op)
        state.latency.observe(seconds)
        if error:
            state.errors.inc()
        slo = self._slos.get(op)
        if (
            slo is not None
            and slo.p99_seconds is not None
            and seconds > slo.p99_seconds
        ):
            state.over_target.inc()

    def evaluate(self) -> List[SLOStatus]:
        """Judge every tracked operation and refresh the SLO gauges."""
        with self._lock:
            items = sorted(self._states.items())
        out: List[SLOStatus] = []
        for op, state in items:
            snap = state.latency.snapshot()
            errors = int(state.errors.value())
            error_ratio = errors / snap.count if snap.count else 0.0
            slo = self._slos.get(op)
            reasons: List[str] = []
            latency_burn = 0.0
            error_burn = 0.0
            if slo is not None and snap.count:
                if slo.p99_seconds is not None:
                    over = state.over_target.value()
                    latency_burn = (over / snap.count) / _P99_BUDGET
                    if snap.p99 > slo.p99_seconds:
                        reasons.append(
                            f"p99 {snap.p99 * 1000:.1f}ms > target "
                            f"{slo.p99_seconds * 1000:.1f}ms"
                        )
                if slo.max_error_ratio is not None:
                    error_burn = error_ratio / slo.max_error_ratio
                    if error_ratio > slo.max_error_ratio:
                        reasons.append(
                            f"error ratio {error_ratio:.2%} > "
                            f"{slo.max_error_ratio:.2%}"
                        )
            breached = bool(reasons)
            if breached and not state.breached:
                _BREACHES.labels(op=op).inc()
            state.breached = breached
            window = (
                slo.window_seconds if slo else self._default_window
            )
            status = SLOStatus(
                op=op,
                window_seconds=window,
                count=snap.count,
                errors=errors,
                p50=snap.p50,
                p95=snap.p95,
                p99=snap.p99,
                error_ratio=error_ratio,
                latency_burn_rate=latency_burn,
                error_burn_rate=error_burn,
                breached=breached,
                reasons=tuple(reasons),
            )
            _WINDOW_P99.labels(op=op).set(snap.p99)
            _ERROR_RATIO.labels(op=op).set(error_ratio)
            _BURN_RATE.labels(op=op, kind="latency").set(latency_burn)
            _BURN_RATE.labels(op=op, kind="error").set(error_burn)
            _BREACHED.labels(op=op).set(1 if breached else 0)
            out.append(status)
        return out

    def breached(self) -> bool:
        """Whether any operation currently violates its SLO."""
        return any(status.breached for status in self.evaluate())


__all__ = ["SLO", "SLOStatus", "SLOTracker"]
