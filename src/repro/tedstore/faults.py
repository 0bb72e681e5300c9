"""Deterministic fault injection for TEDStore transports.

Wraps any key-manager or provider stub and injects the four failure
modes a real deployment sees on the wire:

* **drop** — the request is lost before delivery (``InjectedFault``).
* **close** — the request is delivered but the reply is lost, modelling a
  connection torn down mid-exchange. For non-idempotent state this is the
  dangerous case: the side effect happened, the caller doesn't know.
* **delay** — the reply stalls (drives idle-timeout and deadline paths).
* **corrupt** — the reply's encoded payload has one byte flipped and is
  re-decoded, so the caller sees either a ``ProtocolError`` or silently
  corrupted data, exactly as a damaged frame would present.

Two further *stateful* fault kinds model whole-process failure domains
for the chaos harness (``tools/chaos.py``, DESIGN.md §17). They are
toggled, not drawn from the RNG, because a pause or partition is a
condition with duration, not a per-call coin flip:

* **pause** — :meth:`~FaultyProvider.pause` makes every call block
  until :meth:`~FaultyProvider.resume`, the in-process analogue of
  ``SIGSTOP`` on a shard process: the peer is alive but silent, which
  is what drives client io-timeouts and opens circuit breakers.
* **partition** — :meth:`~FaultyProvider.partition` makes every call
  fail instantly with :class:`InjectedFault` until
  :meth:`~FaultyProvider.heal`, the analogue of a network partition:
  connections are refused outright, no timeout is spent.

All randomness comes from one seeded RNG per wrapper, so a fault schedule
replays identically run after run — degraded-path tests are deterministic,
never flaky.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from repro.tedstore import messages as m


class InjectedFault(ConnectionError):
    """A transport failure injected by a :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and parameters of injected faults.

    Rates are independent per-call probabilities in ``[0, 1]``; ``seed``
    makes the schedule deterministic; ``sleep`` is injectable so delay
    faults cost no real time in tests.
    """

    drop_rate: float = 0.0
    close_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    corrupt_rate: float = 0.0
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        for name in ("drop_rate", "close_rate", "delay_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds cannot be negative")

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan with a different RNG seed (per-replica schedules)."""
        return replace(self, seed=seed)


class _Injector:
    """Seeded fault scheduler shared by the transport wrappers.

    Thread-safe: a threaded client calls one transport from several
    worker threads concurrently, so RNG draws and counter updates are
    serialized under a lock (the delay sleep happens outside it). Under
    concurrency the *assignment* of faults to calls depends on thread
    scheduling, but the fault schedule itself — which call numbers fault
    — stays the seeded, reproducible sequence.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        # Pause/partition are duration conditions, not RNG draws. The
        # event starts set (= running); pause() clears it so callers
        # block in before() until resume() sets it again.
        self._running = threading.Event()
        self._running.set()
        self._partitioned = False
        self.counters: Dict[str, int] = {
            "drops": 0,
            "closes": 0,
            "delays": 0,
            "corruptions": 0,
            "deliveries": 0,
            "paused_calls": 0,
            "partition_rejects": 0,
        }

    def pause(self) -> None:
        """Block every subsequent call until :meth:`resume` (SIGSTOP)."""
        self._running.clear()

    def resume(self) -> None:
        """Release callers blocked by :meth:`pause` (SIGCONT)."""
        self._running.set()

    @property
    def paused(self) -> bool:
        return not self._running.is_set()

    def partition(self) -> None:
        """Fail every subsequent call instantly until :meth:`heal`."""
        with self._lock:
            self._partitioned = True

    def heal(self) -> None:
        """End a :meth:`partition`; calls flow to the inner stub again."""
        with self._lock:
            self._partitioned = False

    @property
    def partitioned(self) -> bool:
        with self._lock:
            return self._partitioned

    def before(self, op: str) -> None:
        """Fault point before the request reaches the inner stub."""
        # Partition check precedes the pause wait: a partitioned peer
        # refuses instantly, it does not sit in a connect stall.
        with self._lock:
            if self._partitioned:
                self.counters["partition_rejects"] += 1
                raise InjectedFault(f"injected partition before {op}")
        if not self._running.is_set():
            with self._lock:
                self.counters["paused_calls"] += 1
            self._running.wait()
            # A pause often ends in a partition or kill; re-check so a
            # resume-then-partition race can't slip a call through.
            with self._lock:
                if self._partitioned:
                    self.counters["partition_rejects"] += 1
                    raise InjectedFault(f"injected partition before {op}")
        delay = False
        with self._lock:
            if (
                self.plan.delay_rate
                and self._rng.random() < self.plan.delay_rate
            ):
                self.counters["delays"] += 1
                delay = True
        if delay:
            self.plan.sleep(self.plan.delay_seconds)
        with self._lock:
            if (
                self.plan.drop_rate
                and self._rng.random() < self.plan.drop_rate
            ):
                self.counters["drops"] += 1
                raise InjectedFault(f"injected drop before {op}")

    def after(self, op: str, response, codec=None):
        """Fault point after the inner stub produced a response.

        With a ``codec`` (the response dataclass), corruption faults flip
        one byte of the encoded payload and re-decode it; a decode failure
        surfaces as :class:`~repro.tedstore.messages.ProtocolError`.
        """
        with self._lock:
            if (
                self.plan.close_rate
                and self._rng.random() < self.plan.close_rate
            ):
                self.counters["closes"] += 1
                raise InjectedFault(f"injected close after {op} (reply lost)")
            corrupt = (
                codec is not None
                and self.plan.corrupt_rate
                and self._rng.random() < self.plan.corrupt_rate
            )
            if corrupt:
                payload = bytearray(response.encode())
                if payload:
                    self.counters["corruptions"] += 1
                    payload[self._rng.randrange(len(payload))] ^= 0xFF
                else:
                    corrupt = False
            self.counters["deliveries"] += 1
        if corrupt:
            try:
                response = codec.decode(bytes(payload))
            except Exception as exc:
                raise m.ProtocolError(
                    f"injected corrupt frame in {op}: {exc}"
                ) from exc
        return response


class _FaultControls:
    """Pause/partition toggles shared by every faulty wrapper."""

    _injector: _Injector

    @property
    def fault_counters(self) -> Dict[str, int]:
        return dict(self._injector.counters)

    def pause(self) -> None:
        """Freeze the wrapped peer: calls block until :meth:`resume`."""
        self._injector.pause()

    def resume(self) -> None:
        """Unfreeze a :meth:`pause`-d peer."""
        self._injector.resume()

    @property
    def paused(self) -> bool:
        return self._injector.paused

    def partition(self) -> None:
        """Cut the wrapped peer off: calls fail until :meth:`heal`."""
        self._injector.partition()

    def heal(self) -> None:
        """Reconnect a :meth:`partition`-ed peer."""
        self._injector.heal()

    @property
    def partitioned(self) -> bool:
        return self._injector.partitioned


class FaultyKeyManager(_FaultControls):
    """Fault-injecting wrapper around any ``KeyManagerTransport``."""

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._injector = _Injector(plan)

    def keygen(self, request: m.KeyGenRequest) -> m.KeyGenResponse:
        self._injector.before("keygen")
        response = self._inner.keygen(request)
        return self._injector.after("keygen", response, codec=m.KeyGenResponse)

    def keygen_batched(
        self, request: m.BatchedKeyGenRequest
    ) -> m.BatchedKeyGenResponse:
        self._injector.before("keygen_batched")
        response = self._inner.keygen_batched(request)
        return self._injector.after(
            "keygen_batched", response, codec=m.BatchedKeyGenResponse
        )

    def stats(self) -> List[Tuple[str, int]]:
        self._injector.before("stats")
        return self._injector.after("stats", self._inner.stats())

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class FaultyProvider(_FaultControls):
    """Fault-injecting wrapper around any ``ProviderTransport``."""

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._injector = _Injector(plan)

    def put_chunks(self, request: m.PutChunks) -> m.PutChunksResponse:
        self._injector.before("put_chunks")
        response = self._inner.put_chunks(request)
        return self._injector.after(
            "put_chunks", response, codec=m.PutChunksResponse
        )

    def get_chunks(self, request: m.GetChunks) -> m.Chunks:
        self._injector.before("get_chunks")
        response = self._inner.get_chunks(request)
        return self._injector.after("get_chunks", response, codec=m.Chunks)

    def put_recipes(self, request: m.PutRecipes) -> None:
        self._injector.before("put_recipes")
        self._inner.put_recipes(request)
        self._injector.after("put_recipes", None)

    def get_recipes(self, request: m.GetRecipes) -> m.PutRecipes:
        self._injector.before("get_recipes")
        response = self._inner.get_recipes(request)
        return self._injector.after(
            "get_recipes", response, codec=m.PutRecipes
        )

    def stats(self) -> List[Tuple[str, int]]:
        self._injector.before("stats")
        return self._injector.after("stats", self._inner.stats())

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()
