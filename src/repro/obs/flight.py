"""Flight recorder: bounded structured-JSONL event log for post-mortems.

A load run (or any long-lived deployment) appends one JSON object per
line to an on-disk file: per-operation outcomes, periodic metric deltas,
finished spans, and run metadata. The file is the durable complement of
the in-memory registry/recorder — after a run ends (or a process dies),
``repro top --replay <file>`` reconstructs the per-op latency timeline
from it.

Event shapes (every event carries ``ts`` — seconds, monotonic within the
file — and ``kind``):

* ``meta`` — run metadata (profile name, seed, started-at wall clock).
* ``op`` — one finished operation: ``op``, ``tenant``, ``seconds``,
  ``ok``, ``bytes``, optional ``error``.
* ``metrics`` — delta of registry counters since the previous
  ``metrics`` event (only changed series, so idle periods cost bytes
  proportional to activity, not registry size).
* ``span`` — one finished span (name, duration, status).

**Boundedness.** The recorder enforces a byte budget with two-file
rotation: when the active file would exceed half the budget it is
renamed to ``<path>.1`` (clobbering the previous rollover) and a fresh
active file is started. Total disk usage stays under ``max_bytes`` plus
one event, and the most recent half-budget of history is always intact.
:func:`iter_flight` reads the rollover first, then the active file, and
tolerates a torn final line (a crashed writer), mirroring the WAL
replay convention (DESIGN.md §12).
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs import metrics as obs_metrics

ROTATED_SUFFIX = ".1"


class FlightRecorder:
    """Append-only, size-bounded JSONL event writer. Thread-safe.

    Args:
        path: active file path; the rollover lives at ``<path>.1``.
        max_bytes: total on-disk budget across both files.
        clock: timestamp source (monotonic seconds); injectable.
    """

    def __init__(
        self,
        path: os.PathLike,
        max_bytes: int = 8 << 20,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_bytes < 4096:
            raise ValueError("max_bytes must be at least 4096")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._clock = clock
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8"
        )
        self._size = self.path.stat().st_size
        self._last_counters: Dict[str, float] = {}

    # -- core ----------------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> None:
        """Write one event; rotates first if the budget would be crossed."""
        with self._lock:
            if self._file is None:
                return  # closed: late events are dropped, not crashes
            # Stamped under the lock: file order is timestamp order even
            # when several threads emit at once.
            event = {"ts": round(self._clock(), 6), "kind": kind}
            event.update(fields)
            line = json.dumps(event, separators=(",", ":")) + "\n"
            encoded = len(line.encode("utf-8"))
            if self._size + encoded > self.max_bytes // 2:
                self._rotate_locked()
            self._file.write(line)
            self._size += encoded

    def _rotate_locked(self) -> None:
        self._file.close()
        os.replace(self.path, self.path.with_name(
            self.path.name + ROTATED_SUFFIX
        ))
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- typed emitters -------------------------------------------------------

    def emit_meta(self, **fields: object) -> None:
        self.emit("meta", **fields)

    def emit_op(
        self,
        op: str,
        tenant: str,
        seconds: float,
        ok: bool,
        nbytes: int = 0,
        error: Optional[str] = None,
    ) -> None:
        fields: Dict[str, object] = {
            "op": op,
            "tenant": tenant,
            "seconds": round(seconds, 6),
            "ok": ok,
            "bytes": nbytes,
        }
        if error is not None:
            fields["error"] = error
        self.emit("op", **fields)

    def emit_metrics_delta(
        self, registry: Optional[obs_metrics.MetricsRegistry] = None
    ) -> None:
        """Record counter/gauge movement since the previous delta event.

        Histogram series are skipped (ops already carry exact latencies);
        unchanged series are skipped so steady state is nearly free.
        """
        registry = registry or obs_metrics.get_registry()
        current: Dict[str, float] = {}
        for instrument in registry.instruments():
            if instrument.kind == "histogram":
                continue
            for values, child in instrument.children():
                suffix = obs_metrics._format_labels(
                    instrument.labelnames, values
                )
                current[f"{instrument.name}{suffix}"] = child.value
        delta = {
            name: value
            for name, value in current.items()
            if self._last_counters.get(name) != value
        }
        self._last_counters = current
        if delta:
            self.emit("metrics", delta=delta)


def iter_flight(path: os.PathLike) -> Iterator[dict]:
    """Yield every intact event from a flight file, oldest first.

    Reads ``<path>.1`` (the rollover) before ``<path>``. A torn final
    line — the writer died mid-append — is skipped silently; a torn line
    anywhere else raises ``ValueError`` (the file is damaged, not merely
    truncated).
    """
    path = Path(path)
    parts: List[Path] = []
    rotated = path.with_name(path.name + ROTATED_SUFFIX)
    if rotated.exists():
        parts.append(rotated)
    parts.append(path)
    if not path.exists() and not parts[:-1]:
        raise FileNotFoundError(path)
    for index, part in enumerate(parts):
        if not part.exists():
            continue
        lines = part.read_text(encoding="utf-8").splitlines()
        last_file = index == len(parts) - 1
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except ValueError:
                if last_file and lineno == len(lines) - 1:
                    return  # torn tail from a crashed writer
                raise ValueError(
                    f"damaged flight record at {part}:{lineno + 1}"
                )


def read_ops(path: os.PathLike) -> List[dict]:
    """Just the ``op`` events of a flight file, oldest first."""
    return [event for event in iter_flight(path) if event["kind"] == "op"]


__all__ = ["FlightRecorder", "iter_flight", "read_ops", "ROTATED_SUFFIX"]
