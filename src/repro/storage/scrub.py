"""Scrub and fsck: verify every stored chunk, optionally self-heal.

Crash recovery (DESIGN.md §12) handles the damage a crash *predictably*
leaves — torn temp files, un-truncated WALs, index entries ahead of the
container store. This module handles the damage nothing predicts: bit rot,
a misdirected write, an operator truncating the wrong file. The container
v2 format makes every chunk individually checksummed, so verification is a
pure read-side pass:

* :func:`fsck` — one full check of a dedup engine's storage root. The
  structural pass validates each sealed container's framing (magic,
  trailer, TOC checksum) from its TOC and trailer alone; the deep pass
  reads each container once, whole, and checks every chunk's CRC against
  the TOC; the index pass proves every fingerprint-index
  entry resolves into a valid container. With ``repair=True`` it also
  heals: structurally-corrupt containers are quarantined, bad chunks are
  re-pointed at a verified redundant copy when some other container
  holds the same fingerprint (dedup means the copy is byte-identical),
  and entries with no good copy are dropped so reads fail loudly with
  ``KeyError`` instead of silently returning garbage.

* :class:`BackgroundScrubber` — a daemon thread running periodic
  read-only fsck passes, surfacing damage through the ``ted_scrub_*``
  metrics long before a restore trips over it.

fsck may run against a serving engine: it takes the engine's index lock
for the index snapshot and its container lock for each container read,
and counts an entry that points into the open container's current
buffer as live (it becomes durable at the next seal).

The CLI front-end is ``repro fsck`` (exit 0 clean / 1 damaged, ``--json``
for machine consumption) — see docs/RUNBOOK.md.
"""

from __future__ import annotations

import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.storage.container import ChunkLocation, ContainerIntegrityError
from repro.storage.dedup import DedupEngine
from repro.storage.sharded import engine_roots

_REGISTRY = obs_metrics.get_registry()
_SCRUB_CHUNKS = _REGISTRY.counter(
    "ted_scrub_chunks_verified_total",
    "Chunk checksums verified by scrub/fsck",
)
_SCRUB_BAD_CHUNKS = _REGISTRY.counter(
    "ted_scrub_bad_chunks_total",
    "Chunks that failed checksum verification",
)
_SCRUB_STRUCTURAL = _REGISTRY.counter(
    "ted_scrub_structural_errors_total",
    "Containers that failed structural validation during scrub/fsck",
)
_SCRUB_SECONDS = _REGISTRY.histogram(
    "ted_scrub_pass_seconds",
    "Wall time of one scrub/fsck pass",
    buckets=obs_metrics.DURATION_BUCKETS_COARSE,
)


@dataclass
class BadChunk:
    """One chunk that failed verification."""

    container_id: int
    offset: int
    length: int
    fingerprint: str  # hex; "" when the writer recorded none
    referenced: bool = False
    healed: bool = False
    dropped: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "container_id": self.container_id,
            "offset": self.offset,
            "length": self.length,
            "fingerprint": self.fingerprint,
            "referenced": self.referenced,
            "healed": self.healed,
            "dropped": self.dropped,
        }


@dataclass
class FsckReport:
    """Outcome of one fsck pass."""

    containers_checked: int = 0
    chunks_verified: int = 0
    bad_chunks: List[BadChunk] = field(default_factory=list)
    structural_errors: List[int] = field(default_factory=list)
    index_entries_checked: int = 0
    dangling_index_entries: int = 0
    healed: int = 0
    dropped: int = 0
    repaired: bool = False
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """True when nothing the store *serves* is damaged.

        A bad chunk that no live index entry references is reported but
        does not dirty the verdict: GC copy-forward and fsck's own
        ``--repair`` drops routinely leave dead chunks behind in sealed
        containers, and rot in garbage is unreachable by any read.
        """
        return (
            not self.structural_errors
            and self.dangling_index_entries == 0
            and not any(bad.referenced for bad in self.bad_chunks)
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the ``repro fsck --json`` payload)."""
        return {
            "clean": self.clean,
            "containers_checked": self.containers_checked,
            "chunks_verified": self.chunks_verified,
            "bad_chunks": [bad.as_dict() for bad in self.bad_chunks],
            "bad_chunk_count": len(self.bad_chunks),
            "structural_errors": self.structural_errors,
            "index_entries_checked": self.index_entries_checked,
            "dangling_index_entries": self.dangling_index_entries,
            "healed": self.healed,
            "dropped": self.dropped,
            "repaired": self.repaired,
            "seconds": self.seconds,
        }


def _find_redundant_copy(
    engine: DedupEngine,
    fingerprint: bytes,
    bad_container: int,
    structural_bad: List[int],
) -> Optional[ChunkLocation]:
    """Locate a *verified* copy of ``fingerprint`` in another container.

    Deduplication normally stores one copy per fingerprint, but GC
    copy-forward, crash replays, and pre-quarantine duplicates can leave
    extras; any copy whose CRC checks out is byte-identical by content
    addressing. Reads each candidate container's TOC, and only the
    chunks whose fingerprint matches.
    """
    containers = engine.containers
    for container_id in containers.container_ids():
        if container_id == bad_container or container_id in structural_bad:
            continue
        try:
            with engine.container_lock:
                for entry in containers.toc(container_id):
                    if entry.fingerprint != fingerprint:
                        continue
                    location = ChunkLocation(
                        container_id, entry.offset, entry.length
                    )
                    if zlib.crc32(containers.read(location)) == entry.crc:
                        return location
        except (ContainerIntegrityError, KeyError):
            continue
    return None


def _heal(
    engine: DedupEngine,
    fingerprint: bytes,
    bad_container: int,
    structural_bad: List[int],
) -> bool:
    """Re-point an entry at a verified redundant copy, else drop it.

    Returns True when healed, False when the entry was dropped.
    """
    replacement = _find_redundant_copy(
        engine, fingerprint, bad_container, structural_bad
    )
    with engine.index_lock:
        if replacement is None:
            engine.index.delete(fingerprint)
        else:
            engine.index.put(fingerprint, replacement.to_bytes())
    return replacement is not None


def fsck(
    engine: DedupEngine, *, repair: bool = False, deep: bool = True
) -> FsckReport:
    """Verify (and with ``repair``, heal) one dedup engine's storage.

    Args:
        engine: the engine to check, possibly while it serves. Its open
            container buffer is not verified, but index entries into it
            count as live (seal/flush first for a complete check).
        repair: quarantine corrupt containers, re-point bad chunks at
            verified redundant copies, drop unhealable index entries.
        deep: verify every chunk's CRC (the expensive pass); ``False``
            checks container framing and index reachability only.

    Returns:
        The :class:`FsckReport`; ``report.clean`` is the verdict.
    """
    start = time.perf_counter()
    report = FsckReport(repaired=repair)
    containers = engine.containers
    bad_by_location: Dict[Tuple[int, int], BadChunk] = {}

    for container_id in containers.container_ids():
        report.containers_checked += 1
        try:
            with engine.container_lock:
                if deep:
                    entries, bad_entries = containers.verify_container(
                        container_id
                    )
                else:
                    containers.toc(container_id)
        except ContainerIntegrityError:
            report.structural_errors.append(container_id)
            _SCRUB_STRUCTURAL.inc()
            continue
        if not deep:
            continue
        report.chunks_verified += len(entries)
        _SCRUB_CHUNKS.inc(len(entries))
        for entry in bad_entries:
            bad = BadChunk(
                container_id=container_id,
                offset=entry.offset,
                length=entry.length,
                fingerprint=entry.fingerprint.hex(),
            )
            report.bad_chunks.append(bad)
            bad_by_location[(container_id, entry.offset)] = bad
            _SCRUB_BAD_CHUNKS.inc()

    if repair:
        for container_id in report.structural_errors:
            try:
                with engine.container_lock:
                    containers.quarantine_container(container_id)
            except KeyError:
                pass

    # Index pass: every entry must land inside an intact container — and
    # with ``repair``, entries over bad chunks are healed or dropped.
    # The container state is read *after* the index snapshot: containers
    # only grow and seal, so every snapshotted entry of a serving engine
    # is then either sealed or inside the open buffer.
    structural = set(report.structural_errors)
    with engine.index_lock:
        index_entries = list(engine.index.items())
    with engine.container_lock:
        sealed = set(containers.container_ids())
        open_id = containers.open_container_id
        open_bytes = containers.open_data_bytes
    for fingerprint, raw in index_entries:
        report.index_entries_checked += 1
        try:
            location = ChunkLocation.from_bytes(raw)
        except ValueError:
            location = None
        dangling = (
            location is None
            or location.container_id in structural
            or location.container_id not in sealed
            and (
                location.container_id != open_id
                or location.offset + location.length > open_bytes
            )
        )
        bad = (
            bad_by_location.get((location.container_id, location.offset))
            if location is not None
            else None
        )
        if dangling:
            report.dangling_index_entries += 1
            if repair:
                healed = _heal(
                    engine,
                    fingerprint,
                    location.container_id if location else -1,
                    report.structural_errors,
                )
                report.healed += healed
                report.dropped += not healed
        elif bad is not None:
            bad.referenced = True
            if repair:
                bad.healed = _heal(
                    engine,
                    fingerprint,
                    location.container_id,
                    report.structural_errors,
                )
                bad.dropped = not bad.healed
                report.healed += bad.healed
                report.dropped += bad.dropped
    if repair:
        with engine.index_lock:
            engine.index.flush()

    report.seconds = time.perf_counter() - start
    _SCRUB_SECONDS.observe(report.seconds)
    return report


def fsck_path(
    directory, *, repair: bool = False, deep: bool = True
) -> FsckReport:
    """Run :func:`fsck` over every engine under a root (``repro fsck``).

    The engines are :func:`~repro.storage.sharded.engine_roots`: the
    shared engine, private tenant engines, and with ``shards/<k>/``
    every leaf's engines too. Each is opened as a :class:`DedupEngine`
    — which runs normal startup recovery first (quarantine, WAL replay,
    index reconcile), so fsck on a crashed store reports the
    *post-recovery* state, the one the provider would actually serve.
    The per-engine reports merge; container ids repeat across engines,
    so the lists keep every entry.
    """
    start = time.perf_counter()
    merged = FsckReport(repaired=repair)
    for root in engine_roots(directory) or [Path(directory)]:
        engine = DedupEngine(root)
        try:
            part = fsck(engine, repair=repair, deep=deep)
        finally:
            engine.close()
        merged.containers_checked += part.containers_checked
        merged.chunks_verified += part.chunks_verified
        merged.bad_chunks.extend(part.bad_chunks)
        merged.structural_errors.extend(part.structural_errors)
        merged.index_entries_checked += part.index_entries_checked
        merged.dangling_index_entries += part.dangling_index_entries
        merged.healed += part.healed
        merged.dropped += part.dropped
    merged.seconds = time.perf_counter() - start
    return merged


class BackgroundScrubber:
    """Periodic read-only fsck passes on a daemon thread.

    Args:
        engine: engine to scrub, shared with the serving path; each
            pass takes the engine's own locks (see :func:`fsck`). A
            failed pass is printed to stderr and the next one still runs.
        interval_seconds: sleep between passes.
        deep: per-chunk CRC verification on each pass.

    Example:
        >>> import tempfile
        >>> engine = DedupEngine(tempfile.mkdtemp())
        >>> scrubber = BackgroundScrubber(engine, interval_seconds=3600)
        >>> scrubber.last_report is None
        True
    """

    def __init__(
        self,
        engine: DedupEngine,
        interval_seconds: float = 3600.0,
        deep: bool = True,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.engine = engine
        self.interval_seconds = interval_seconds
        self.deep = deep
        self.last_report: Optional[FsckReport] = None
        self.passes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start the scrub loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="ted-scrubber", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception as exc:  # one bad pass must not end scrubbing
                print(f"scrubber: pass failed: {exc!r}", file=sys.stderr)
            self._stop.wait(self.interval_seconds)

    def run_once(self) -> FsckReport:
        """One synchronous pass (tests and operator tooling)."""
        self.last_report = fsck(self.engine, repair=False, deep=self.deep)
        self.passes += 1
        return self.last_report

    def stop(self) -> None:
        """Stop the loop and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
