"""Per-shard health layer: circuit breakers and heartbeat probing.

A multi-process deployment (DESIGN.md §17) turns each shard into an
independent failure domain. This module is the client-side armor around
each per-shard route:

* :class:`CircuitBreaker` — classic closed → open → half-open machine.
  It composes *above* :class:`~repro.tedstore.retry.RetryPolicy`: the
  retry policy absorbs transient blips within one call, and only a
  call that fails *after* its retries counts as a breaker failure.
  After ``failure_threshold`` consecutive failed calls the breaker
  opens and every further call fails fast with
  :class:`ShardUnavailableError` — no socket is touched, so a dead or
  paused shard costs microseconds instead of an ``io_timeout`` per
  batch. After ``reset_timeout`` seconds the breaker admits a single
  half-open probe; success closes it, failure re-opens it.

* :class:`ShardHealthMonitor` — a daemon thread that probes every
  shard on a cadence (callers supply the probe, typically a wire
  ``PING``). Probe outcomes feed the breakers, so a restarted shard
  rejoins within one heartbeat interval even with no client traffic
  to trip the half-open path.

Instruments (all labelled ``side`` = ``km`` | ``provider``, ``shard``):

* ``ted_shard_health`` — 1 healthy / 0 unhealthy, from the last probe
  or call outcome.
* ``ted_breaker_state`` — 0 closed / 1 half-open / 2 open.
* ``ted_shard_failover_total`` — breaker transitions, labelled
  ``event`` = ``open`` (shard left service) | ``rejoin`` (probe or
  trial call brought it back).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, Optional

from repro.obs import metrics as obs_metrics

_REGISTRY = obs_metrics.get_registry()
_SHARD_HEALTH = _REGISTRY.gauge(
    "ted_shard_health",
    "Last known shard health (1 healthy, 0 unhealthy)",
    labelnames=("side", "shard"),
)
_BREAKER_STATE = _REGISTRY.gauge(
    "ted_breaker_state",
    "Per-shard circuit breaker state (0 closed, 1 half-open, 2 open)",
    labelnames=("side", "shard"),
)
_FAILOVER = _REGISTRY.counter(
    "ted_shard_failover_total",
    "Shard failure-domain transitions (breaker opened / shard rejoined)",
    labelnames=("side", "shard", "event"),
)

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class ShardUnavailableError(ConnectionError):
    """A shard's circuit breaker is open — the call was not attempted.

    Raised client-side, before any bytes hit the wire, so a dead shard
    fails a batch in microseconds instead of hanging the pipeline for
    an io-timeout. Carries enough context for callers (and operators
    reading logs) to know *which* failure domain is out.
    """

    def __init__(self, side: str, shard: int, reason: str) -> None:
        super().__init__(
            f"{side} shard {shard} unavailable: {reason}"
        )
        self.side = side
        self.shard = int(shard)
        self.reason = reason


class CircuitBreaker:
    """Closed → open → half-open breaker for one shard route.

    Args:
        side: ``km`` or ``provider`` (metric label).
        shard: shard id (metric label).
        failure_threshold: consecutive call failures that open it.
        reset_timeout: seconds an open breaker waits before admitting
            one half-open trial call.
        clock: injectable time source for deterministic tests.

    Thread-safe; the half-open state admits exactly one in-flight
    trial at a time (others fail fast until the trial resolves).
    """

    def __init__(
        self,
        side: str,
        shard: int,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout cannot be negative")
        self.side = side
        self.shard = int(shard)
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trial_inflight = False
        self._last_failure = ""
        self._publish(CLOSED)

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_locked()

    def _peek_locked(self) -> str:
        """Current state, promoting open → half-open on timeout expiry."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._trial_inflight = False
            self._publish(HALF_OPEN)
        return self._state

    def _publish(self, state: str) -> None:
        _BREAKER_STATE.labels(
            side=self.side, shard=str(self.shard)
        ).set(_STATE_CODES[state])
        _SHARD_HEALTH.labels(side=self.side, shard=str(self.shard)).set(
            1 if state == CLOSED else 0
        )

    # -- admission ---------------------------------------------------------

    def admit(self) -> None:
        """Gate one call; raises :class:`ShardUnavailableError` if open.

        In half-open, exactly one caller is admitted as the trial; the
        trial's :meth:`record_success` / :meth:`record_failure` decides
        whether the breaker closes or re-opens.
        """
        with self._lock:
            state = self._peek_locked()
            if state == CLOSED:
                return
            if state == HALF_OPEN and not self._trial_inflight:
                self._trial_inflight = True
                return
            reason = self._fail_fast_reason_locked(state)
        raise ShardUnavailableError(self.side, self.shard, reason)

    def _fail_fast_reason_locked(self, state: str) -> str:
        if state == OPEN:
            retry_in = max(
                0.0,
                self.reset_timeout - (self._clock() - self._opened_at),
            )
            cause = f": {self._last_failure}" if self._last_failure else ""
            return f"circuit breaker open (retry in {retry_in:.2f}s){cause}"
        return "circuit breaker half-open (trial in flight)"

    def check(self) -> None:
        """Raise iff a call admitted *now* would fail fast; consumes nothing.

        Batch pre-admission uses this: it must prove every target shard
        admittable before any sub-batch is sent, without claiming the
        half-open trial slot the actual call (whose :meth:`admit` runs
        next) still needs — taking it here would wedge the trial
        in-flight forever and lock a recovering shard out of traffic.
        """
        with self._lock:
            state = self._peek_locked()
            if state == CLOSED:
                return
            if state == HALF_OPEN and not self._trial_inflight:
                return
            reason = self._fail_fast_reason_locked(state)
        raise ShardUnavailableError(self.side, self.shard, reason)

    def record_success(self) -> None:
        """A call (or probe) succeeded: close from any state."""
        with self._lock:
            rejoined = self._state != CLOSED
            self._state = CLOSED
            self._consecutive_failures = 0
            self._trial_inflight = False
            self._publish(CLOSED)
        if rejoined:
            _FAILOVER.labels(
                side=self.side, shard=str(self.shard), event="rejoin"
            ).inc()

    def record_failure(self, reason: str = "") -> None:
        """A call (or probe) failed after its own retries.

        ``reason`` is quoted by the fail-fast error while the breaker
        stays open, so an operator sees *why* the shard left service.
        """
        with self._lock:
            state = self._peek_locked()
            self._consecutive_failures += 1
            self._last_failure = reason
            opened = False
            if state == HALF_OPEN or (
                state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._trial_inflight = False
                self._publish(OPEN)
                opened = True
        if opened:
            _FAILOVER.labels(
                side=self.side, shard=str(self.shard), event="open"
            ).inc()


class ShardHealthMonitor:
    """Background heartbeat loop feeding a set of breakers.

    Args:
        probes: ``shard id -> probe callable``; a probe returns on
            success and raises on failure. Probes should be cheap and
            bounded (a single PING with a short socket timeout) —
            they run serially per tick.
        breakers: ``shard id -> CircuitBreaker`` receiving outcomes.
        interval: seconds between probe rounds.

    The monitor is deliberately dumb: it does not own connections or
    reconnect logic, it just asks and reports. A shard that restarts
    rejoins within one interval because its probe starts succeeding
    and :meth:`CircuitBreaker.record_success` closes the breaker.
    """

    def __init__(
        self,
        probes: Dict[int, Callable[[], None]],
        breakers: Dict[int, CircuitBreaker],
        interval: float = 1.0,
    ) -> None:
        if set(probes) != set(breakers):
            raise ValueError("probes and breakers must cover the same shards")
        self._probes = dict(probes)
        self._breakers = dict(breakers)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ShardHealthMonitor":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="shard-health", daemon=True
        )
        self._thread.start()
        return self

    def run_once(self) -> Dict[int, bool]:
        """One probe round; returns ``shard -> healthy``. Test hook."""
        results: Dict[int, bool] = {}
        for shard in sorted(self._probes):
            breaker = self._breakers[shard]
            # Every shard is probed every round — an idle deployment
            # still notices a silent death, and a single blip against a
            # closed breaker cannot open it (the failure threshold
            # requires consecutive failures).
            try:
                self._probes[shard]()
            except Exception as exc:
                breaker.record_failure(f"{type(exc).__name__}: {exc}")
                results[shard] = False
            else:
                breaker.record_success()
                results[shard] = True
        return results

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:  # pragma: no cover - defensive
                pass  # a probe round must never kill the monitor

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)


def healthy_shards(breakers: Iterable[CircuitBreaker]) -> Dict[int, bool]:
    """Snapshot ``shard -> is the breaker closed`` for status surfaces."""
    return {b.shard: b.state == CLOSED for b in breakers}


__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "ShardHealthMonitor",
    "ShardUnavailableError",
    "healthy_shards",
]
