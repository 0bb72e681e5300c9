"""Container store: packs unique chunks into fixed-size container files.

The provider packs unique ciphertext chunks (KB each) into fixed-size
containers (8 MB in the paper, §4) so disk I/O happens in container units.
This is the standard backup-store layout [Zhu et al., FAST '08] and is what
produces the *chunk fragmentation* effect of Experiment B.5: later snapshots
reference chunks scattered across many old containers, so restores touch
more containers and slow down.

Chunks are addressed by ``ChunkLocation(container_id, offset, length)``
where ``offset`` indexes into the container's *data section*. A read of a
sealed container is one positioned read (``os.pread``) of exactly that
chunk, through a small LRU of checked open container files; a read from
the still-open container copies just that chunk out of the open buffer.

Crash consistency (DESIGN.md §12). Sealed containers are self-verifying
and atomically published:

* **On-disk format (v2)**::

      [magic: 8] [data section] [TOC] [trailer: 32]

  The TOC holds one entry per chunk — ``fp_len varint || fingerprint ||
  offset varint || length varint || crc32(chunk) u32`` — and the trailer
  is ``data_len u64 || toc_len u64 || toc_crc u32 || chunk_count u32 ||
  magic``. Every chunk is individually checksummed and the TOC itself is
  checksummed, so torn writes and bit rot are always detectable
  (``repro fsck`` / the background scrubber verify them). Every fetch —
  an open of a container file that is not in the LRU — runs the *frame
  check* (magic, trailer, length geometry, TOC CRC), reading only the
  magic, the trailer and the TOC; the *TOC check* (decode + entry
  bounds) runs once per distinct TOC+trailer bytes per container per
  process, keyed by their SHA-256.

* **Atomic seal**: temp file → fsync → rename → directory fsync via the
  :mod:`repro.storage.crash` shim. A crash at any barrier leaves either
  no visible container or a complete one — never a torn visible file.

* **Monotonic id allocation**: every successfully sealed (and every
  quarantined) container id is committed to a small write-ahead log
  (``idalloc.log``) before the store acknowledges it. Startup recovery
  takes ``next_id = max(ids on disk, ids in the log) + 1``, so a crash —
  even one that later loses or quarantines the highest-numbered
  container file — can never reuse a committed id and silently overwrite
  ciphertext that old index entries might still reference.

* **Startup recovery**: stray ``*.tmp`` files from interrupted seals are
  removed, and any visible container that fails structural validation
  (bad magic/trailer/TOC checksum) is moved to ``quarantine/`` rather
  than served.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.storage import crash
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.utils.varint import decode_uvarint, encode_uvarint

DEFAULT_CONTAINER_BYTES = 8 << 20

_MAGIC = b"TEDCNT2\n"
_TRAILER = struct.Struct("<QQII8s")

_REGISTRY = obs_metrics.get_registry()
_CONTAINER_EVENTS = _REGISTRY.counter(
    "ted_container_events_total",
    "Container store activity (sealed flushes, checked opens of sealed "
    "container files, chunk reads through an already-open file)",
    labelnames=("event",),
)
_RECOVERY_QUARANTINED = _REGISTRY.counter(
    "ted_recovery_containers_quarantined_total",
    "Containers moved to quarantine by startup recovery or fsck",
)
_RECOVERY_TMP_REMOVED = _REGISTRY.counter(
    "ted_recovery_torn_tmp_removed_total",
    "Torn temp files from interrupted seals removed at startup",
)


class ContainerIntegrityError(RuntimeError):
    """A sealed container failed structural or checksum validation."""


@dataclass(frozen=True)
class ChunkLocation:
    """Physical address of a chunk inside the container store."""

    container_id: int
    offset: int
    length: int

    def to_bytes(self) -> bytes:
        """Serialize as fixed 16 bytes (id, offset, length as u32/u64/u32)."""
        return (
            self.container_id.to_bytes(4, "big")
            + self.offset.to_bytes(8, "big")
            + self.length.to_bytes(4, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ChunkLocation":
        """Inverse of :meth:`to_bytes`."""
        if len(data) != 16:
            raise ValueError("chunk location must be 16 bytes")
        return cls(
            container_id=int.from_bytes(data[:4], "big"),
            offset=int.from_bytes(data[4:12], "big"),
            length=int.from_bytes(data[12:], "big"),
        )


@dataclass(frozen=True)
class TocEntry:
    """One chunk's TOC record inside a sealed container."""

    fingerprint: bytes
    offset: int
    length: int
    crc: int


def _encode_toc(entries: List[TocEntry]) -> bytes:
    out = bytearray()
    for entry in entries:
        out.extend(encode_uvarint(len(entry.fingerprint)))
        out.extend(entry.fingerprint)
        out.extend(encode_uvarint(entry.offset))
        out.extend(encode_uvarint(entry.length))
        out.extend(entry.crc.to_bytes(4, "little"))
    return bytes(out)


def _decode_toc(blob: bytes, count: int) -> List[TocEntry]:
    entries: List[TocEntry] = []
    pos = 0
    for _ in range(count):
        fp_len, pos = decode_uvarint(blob, pos)
        fingerprint = blob[pos : pos + fp_len]
        if len(fingerprint) != fp_len:
            raise ValueError("TOC fingerprint truncated")
        pos += fp_len
        offset, pos = decode_uvarint(blob, pos)
        length, pos = decode_uvarint(blob, pos)
        if pos + 4 > len(blob):
            raise ValueError("TOC entry truncated")
        crc = int.from_bytes(blob[pos : pos + 4], "little")
        pos += 4
        entries.append(TocEntry(fingerprint, offset, length, crc))
    if pos != len(blob):
        raise ValueError("trailing bytes after TOC")
    return entries


def encode_container(data: bytes, entries: List[TocEntry]) -> bytes:
    """Assemble a complete v2 container file image."""
    toc = _encode_toc(entries)
    trailer = _TRAILER.pack(
        len(data), len(toc), zlib.crc32(toc), len(entries), _MAGIC
    )
    return _MAGIC + data + toc + trailer


def _check_frame(
    pread: Callable[[int, int], bytes], size: int
) -> Tuple[int, bytes, int]:
    """The frame check: magic, trailer magic, length geometry, TOC CRC.

    ``pread(length, offset)`` reads an image of ``size`` bytes: a slice
    of an image in memory, or a positioned read of an open file
    (:func:`_check_file`). Only the magic, the trailer and the TOC are
    read. Returns ``(data_len, tail, chunk_count)``; ``tail`` is the TOC
    followed by the trailer, the bytes the TOC check reads.

    Raises:
        ContainerIntegrityError: on any structural or checksum failure.
    """
    if size < len(_MAGIC) + _TRAILER.size:
        raise ContainerIntegrityError("container shorter than header+trailer")
    if pread(len(_MAGIC), 0) != _MAGIC:
        raise ContainerIntegrityError("bad container magic")
    trailer = pread(_TRAILER.size, size - _TRAILER.size)
    data_len, toc_len, toc_crc, count, magic = _TRAILER.unpack(trailer)
    if magic != _MAGIC:
        raise ContainerIntegrityError("bad container trailer magic")
    if len(_MAGIC) + data_len + toc_len + _TRAILER.size != size:
        raise ContainerIntegrityError("container length mismatch")
    toc = pread(toc_len, len(_MAGIC) + data_len)
    if zlib.crc32(toc) != toc_crc:
        raise ContainerIntegrityError("container TOC checksum failure")
    return data_len, toc + trailer, count


def _pread(fh: BinaryIO, length: int, offset: int) -> bytes:
    """Exactly ``length`` bytes of an open container file at ``offset``.

    Raises:
        ContainerIntegrityError: the file ends first (it was truncated).
    """
    data = os.pread(fh.fileno(), length, offset)
    if len(data) != length:
        raise ContainerIntegrityError(
            f"short container read: {len(data)} of {length} bytes "
            f"at offset {offset}"
        )
    return data


def _check_file(fh: BinaryIO) -> Tuple[int, bytes, int]:
    """:func:`_check_frame` of an open container file, by preads."""
    return _check_frame(partial(_pread, fh), os.fstat(fh.fileno()).st_size)


def _check_toc(tail: bytes, data_len: int, count: int) -> List[TocEntry]:
    """The TOC check of a framed image: decode, then bound every entry.

    Raises:
        ContainerIntegrityError: malformed TOC or an out-of-bounds entry.
    """
    try:
        entries = _decode_toc(tail[: -_TRAILER.size], count)
    except (ValueError, IndexError) as exc:
        raise ContainerIntegrityError(f"malformed container TOC: {exc}")
    for entry in entries:
        if entry.offset + entry.length > data_len:
            raise ContainerIntegrityError("TOC entry exceeds data section")
    return entries


def parse_container(blob: bytes) -> Tuple[bytes, List[TocEntry]]:
    """Parse a container image into (data section, TOC entries).

    Runs the frame check and the TOC check — but not the per-chunk
    checksums (that is the scrubber's deep pass).

    Raises:
        ContainerIntegrityError: on any structural or checksum failure.
    """
    data_len, tail, count = _check_frame(
        lambda length, offset: blob[offset : offset + length], len(blob)
    )
    entries = _check_toc(tail, data_len, count)
    return blob[len(_MAGIC) : len(_MAGIC) + data_len], entries


@dataclass
class ContainerRecoveryReport:
    """What startup recovery found and repaired."""

    tmp_files_removed: int = 0
    quarantined: List[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.quarantined is None:
            self.quarantined = []


class ContainerStore:
    """Append-only chunk storage in fixed-size container files.

    Args:
        directory: where container files live.
        container_bytes: data capacity per container (the paper uses 8 MB;
            tests scale this down). Capacity covers chunk payload only —
            the TOC and trailer ride on top.
        cache_containers: number of checked open container files kept
            in the read LRU (at least 1).
    """

    def __init__(
        self,
        directory,
        container_bytes: int = DEFAULT_CONTAINER_BYTES,
        cache_containers: int = 8,
    ) -> None:
        if container_bytes <= 0:
            raise ValueError("container_bytes must be positive")
        if cache_containers < 1:
            raise ValueError("cache_containers must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.container_bytes = container_bytes
        self.cache_containers = cache_containers
        self._idalloc = WriteAheadLog(
            self.directory / "idalloc.log", scope="container.idalloc"
        )
        # container id -> SHA-256 of the TOC+trailer bytes that passed
        # the TOC check in this process (see _check_sealed).
        self._toc_checked: Dict[int, bytes] = {}
        self.recovery = self._recover()
        self._open_id = self._discover_next_id()
        self._open_buffer = bytearray()
        self._open_toc: List[TocEntry] = []
        # container id -> (open file, data_len) of fetched sealed
        # containers, least recently used first.
        self._files: OrderedDict[int, Tuple[BinaryIO, int]] = OrderedDict()
        self.stats: Dict[str, int] = {
            "containers_sealed": 0,
            "container_reads": 0,
            "cache_hits": 0,
            "containers_quarantined": len(self.recovery.quarantined),
        }

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> ContainerRecoveryReport:
        """Remove torn seals and quarantine structurally invalid containers."""
        report = ContainerRecoveryReport()
        report.tmp_files_removed = crash.remove_stray_tmp_files(
            self.directory
        )
        if report.tmp_files_removed:
            _RECOVERY_TMP_REMOVED.inc(report.tmp_files_removed)
        for path in sorted(self.directory.glob("container-*.bin")):
            container_id = int(path.stem.split("-")[1])
            try:
                with self._open_file(container_id) as fh:
                    self._check_sealed(container_id, fh)
            except ContainerIntegrityError:
                self._quarantine(path)
                report.quarantined.append(container_id)
        return report

    def _quarantine(self, path: Path) -> None:
        """Move an invalid container aside, committing its id first.

        The id commit must precede the move: once the file is gone, only
        the idalloc log prevents the id from being reused (and stale
        index entries from silently resolving into fresh ciphertext).
        """
        container_id = int(path.stem.split("-")[1])
        self._commit_id(container_id)
        quarantine_dir = self.directory / "quarantine"
        quarantine_dir.mkdir(exist_ok=True)
        path.replace(quarantine_dir / path.name)
        crash.fsync_dir(quarantine_dir)
        crash.fsync_dir(self.directory)
        _RECOVERY_QUARANTINED.inc()

    def quarantine_container(self, container_id: int) -> None:
        """Quarantine one sealed container (used by fsck ``--repair``).

        Raises:
            KeyError: unknown container.
        """
        path = self._container_path(container_id)
        if not path.exists():
            raise KeyError(f"container {container_id} does not exist")
        self._close_file(container_id)
        self._toc_checked.pop(container_id, None)
        self._quarantine(path)
        self.stats["containers_quarantined"] += 1

    def _commit_id(self, container_id: int) -> None:
        """Durably record that ``container_id`` has been allocated."""
        self._idalloc.append(
            OP_PUT, b"id", container_id.to_bytes(8, "big")
        )
        self._idalloc.sync()

    def _idalloc_high_water(self) -> int:
        """Highest container id ever committed (-1 when none)."""
        high = -1
        for op, key, value in WriteAheadLog.replay(self._idalloc.path):
            if op == OP_PUT and key == b"id" and len(value) == 8:
                high = max(high, int.from_bytes(value, "big"))
        return high

    def _discover_next_id(self) -> int:
        existing = [
            int(p.stem.split("-")[1])
            for p in self.directory.glob("container-*.bin")
        ]
        return max(existing + [self._idalloc_high_water()]) + 1

    def _container_path(self, container_id: int) -> Path:
        return self.directory / f"container-{container_id}.bin"

    # -- writes ---------------------------------------------------------------

    def append(self, chunk: bytes, fingerprint: bytes = b"") -> ChunkLocation:
        """Append a chunk; seals the open container when it fills.

        A chunk never spans containers: if it does not fit in the remaining
        space, the open container is sealed first. The optional
        ``fingerprint`` is recorded in the container TOC so fsck can map
        physical chunks back to index entries (and heal from redundant
        copies).

        Raises:
            ValueError: if a single chunk exceeds the container capacity.
        """
        if not chunk:
            raise ValueError("cannot store an empty chunk")
        if len(chunk) > self.container_bytes:
            raise ValueError(
                f"chunk of {len(chunk)} bytes exceeds container capacity "
                f"{self.container_bytes}"
            )
        if len(self._open_buffer) + len(chunk) > self.container_bytes:
            self.seal()
        location = ChunkLocation(
            container_id=self._open_id,
            offset=len(self._open_buffer),
            length=len(chunk),
        )
        self._open_toc.append(
            TocEntry(
                fingerprint=fingerprint,
                offset=location.offset,
                length=location.length,
                crc=zlib.crc32(chunk),
            )
        )
        self._open_buffer.extend(chunk)
        return location

    def seal(self) -> Optional[int]:
        """Atomically flush the open container; returns its id (None if empty).

        Write-barrier sequence (each step a named crash point, §12):
        temp write → fsync → rename → directory fsync → id commit to the
        idalloc log. The container only becomes readable after the
        rename, by which point its bytes are durable; the id becomes
        unreusable once either the file is visible or the commit record
        is durable, whichever the crash leaves behind.
        """
        if not self._open_buffer:
            return None
        sealed_id = self._open_id
        sealed_bytes = len(self._open_buffer)
        image = encode_container(bytes(self._open_buffer), self._open_toc)
        crash.atomic_write_bytes(
            self._container_path(sealed_id), image, scope="container.seal"
        )
        crash.crash_point("container.seal.before_commit")
        self._commit_id(sealed_id)
        # The image's TOC was just encoded from entries append() bounded,
        # and _decode_toc inverts _encode_toc: these bytes pass the check.
        self._toc_checked[sealed_id] = hashlib.sha256(
            memoryview(image)[len(_MAGIC) + sealed_bytes :]
        ).digest()
        self._open_buffer = bytearray()
        self._open_toc = []
        self._open_id += 1
        self.stats["containers_sealed"] += 1
        _CONTAINER_EVENTS.labels(event="sealed").inc()
        return sealed_id

    # -- reads ------------------------------------------------------------------

    @property
    def open_container_id(self) -> int:
        """Id of the still-open (unsealed) container.

        :meth:`load_container` of this id snapshots the open buffer, and
        the snapshot MUST NOT be cached by callers: later appends land in
        the same container, so a cached snapshot would serve stale bytes.
        """
        return self._open_id

    @property
    def open_data_bytes(self) -> int:
        """Chunk-payload bytes appended to the open container so far."""
        return len(self._open_buffer)

    def load_container(self, container_id: int) -> bytes:
        """Read one whole container's data section (open buffer or file).

        A whole-image read for scrub and fsck: nothing is cached. The
        open container is snapshotted fresh on every call.

        Raises:
            KeyError: unknown container.
            ContainerIntegrityError: the container file is corrupt.
        """
        if container_id == self._open_id:
            return bytes(self._open_buffer)
        data, _ = parse_container(self._container_image(container_id))
        return data

    def _container_image(self, container_id: int) -> bytes:
        """The whole file of a sealed container (one read)."""
        path = self._container_path(container_id)
        if not path.exists():
            raise KeyError(f"container {container_id} does not exist")
        return path.read_bytes()

    def _open_file(self, container_id: int) -> BinaryIO:
        try:
            return open(self._container_path(container_id), "rb", buffering=0)
        except FileNotFoundError:
            raise KeyError(f"container {container_id} does not exist")

    def _check_sealed(self, container_id: int, fh: BinaryIO) -> int:
        """Frame-check a file; TOC-check it unless its TOC already passed.

        Returns the data section's length. The frame check runs every
        time. The TOC check's outcome is a pure function of the TOC and
        trailer bytes, so it runs only when their SHA-256 differs from
        the one that last passed for this id (DESIGN.md §12).

        Raises:
            ContainerIntegrityError: on any structural or checksum failure.
        """
        data_len, tail, count = _check_file(fh)
        digest = hashlib.sha256(tail).digest()
        if self._toc_checked.get(container_id) != digest:
            _check_toc(tail, data_len, count)
            self._toc_checked[container_id] = digest
        return data_len

    def _fetch(self, container_id: int) -> Tuple[BinaryIO, int]:
        """``(open file, data_len)`` of a sealed container, through the LRU.

        A miss opens and checks the file (:meth:`_check_sealed`); the
        least recently used file beyond ``cache_containers`` is closed.
        """
        cached = self._files.get(container_id)
        if cached is not None:
            self._files.move_to_end(container_id)
            self.stats["cache_hits"] += 1
            _CONTAINER_EVENTS.labels(event="cache_hit").inc()
            return cached
        fh = self._open_file(container_id)
        try:
            data_len = self._check_sealed(container_id, fh)
        except BaseException:
            fh.close()
            raise
        self.stats["container_reads"] += 1
        _CONTAINER_EVENTS.labels(event="read").inc()
        self._files[container_id] = (fh, data_len)
        while len(self._files) > self.cache_containers:
            self._close_file(next(iter(self._files)))
        return fh, data_len

    def _close_file(self, container_id: int) -> None:
        cached = self._files.pop(container_id, None)
        if cached is not None:
            cached[0].close()

    def read(self, location: ChunkLocation) -> bytes:
        """Fetch one chunk by location.

        A chunk of the open container is sliced straight out of the open
        buffer; a chunk of a sealed container is one ``pread`` of its
        bytes from the container's checked open file.

        Raises:
            KeyError: unknown container.
            ValueError: location out of the container's bounds.
            ContainerIntegrityError: the container file is corrupt, or
                shorter than when it was checked.
        """
        end = location.offset + location.length
        if location.container_id == self._open_id:
            if end > len(self._open_buffer):
                raise ValueError(f"chunk location out of bounds: {location}")
            return bytes(self._open_buffer[location.offset : end])
        fh, data_len = self._fetch(location.container_id)
        if end > data_len:
            raise ValueError(f"chunk location out of bounds: {location}")
        return _pread(fh, location.length, len(_MAGIC) + location.offset)

    def toc(self, container_id: int) -> List[TocEntry]:
        """TOC entries for one container (open or sealed).

        Reads only the magic, the trailer and the TOC of a sealed file.

        Raises:
            KeyError: unknown container.
            ContainerIntegrityError: the container file is corrupt.
        """
        if container_id == self._open_id:
            return list(self._open_toc)
        with self._open_file(container_id) as fh:
            data_len, tail, count = _check_file(fh)
        return _check_toc(tail, data_len, count)

    def verify_container(
        self, container_id: int
    ) -> Tuple[List[TocEntry], List[TocEntry]]:
        """Deep-verify one sealed container in one whole-image read.

        Checks every chunk's checksum against its TOC record. Returns
        ``(entries, bad)``: the TOC and the entries that failed.

        Raises:
            KeyError: unknown container.
            ContainerIntegrityError: structural corruption (no per-chunk
                verdict is possible).
        """
        data, entries = parse_container(self._container_image(container_id))
        return entries, [
            entry
            for entry in entries
            if zlib.crc32(data[entry.offset : entry.offset + entry.length])
            != entry.crc
        ]

    # -- introspection ------------------------------------------------------------

    def container_ids(self) -> List[int]:
        """Ids of sealed containers on disk, ascending."""
        return sorted(
            int(p.stem.split("-")[1])
            for p in self.directory.glob("container-*.bin")
        )

    def container_count(self) -> int:
        """Sealed containers on disk (excludes the open one)."""
        return len(list(self.directory.glob("container-*.bin")))

    def container_data_bytes(self, container_id: int) -> int:
        """Chunk-payload bytes in one sealed container (trailer read only).

        Raises:
            KeyError: unknown container.
            ContainerIntegrityError: unreadable trailer.
        """
        path = self._container_path(container_id)
        if not path.exists():
            raise KeyError(f"container {container_id} does not exist")
        return self._data_len(path)

    @staticmethod
    def _data_len(path: Path) -> int:
        size = path.stat().st_size
        if size < len(_MAGIC) + _TRAILER.size:
            raise ContainerIntegrityError(
                "container shorter than header+trailer"
            )
        with open(path, "rb") as fh:
            fh.seek(size - _TRAILER.size)
            data_len, _, _, _, magic = _TRAILER.unpack(fh.read(_TRAILER.size))
        if magic != _MAGIC:
            raise ContainerIntegrityError("bad container trailer magic")
        return data_len

    def physical_bytes(self) -> int:
        """Chunk bytes across sealed containers plus the open buffer.

        Counts the data sections only — the paper's physical storage
        metric covers ciphertext, not our TOC/trailer bookkeeping.
        """
        sealed = sum(
            self._data_len(p)
            for p in self.directory.glob("container-*.bin")
        )
        return sealed + len(self._open_buffer)

    def close(self) -> None:
        """Close the cached container files and the id-allocation log."""
        while self._files:
            self._close_file(next(iter(self._files)))
        self._idalloc.close()
