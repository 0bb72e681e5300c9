"""Durable key-manager state: sketch snapshots plus a batch delta log.

The key manager is the one stateful TEDStore service whose state exists
nowhere else: the Count-Min sketch, the FTED frequency map, and the tuned
``t`` accumulate across every client's uploads, and losing them on a crash
would silently change which chunks deduplicate (a restarted sketch counts
from zero, so previously-frequent chunks look rare and draw random seeds —
storage blowup with no error anywhere). This module makes that state
crash-durable with the classic snapshot + log pair:

* a **snapshot** — the sketch's non-zero cells (index gaps and counts,
  deflated: a snapshot costs one scan of the counters plus O(set
  cells), not the geometry), the FTED frequency map, ``t`` and the
  batch-position counters (a trailing per-client slot is reserved and
  written empty) — published atomically via the durable-write shim
  (crash scope ``km.snapshot``). The older dense form (``TEDKMS1``,
  every counter deflated) still restores and is rewritten sparse at the
  next snapshot; a malformed body fails restore with ``ValueError``;
* an append-only **delta log** — one CRC-protected record per acked
  key-generation batch, holding the batch's hash vectors (crash scope
  ``km.delta``). The record is durable *before* the response leaves the
  service, so "the client saw an ack" implies "recovery will replay it".

Recovery loads the newest intact snapshot and replays every delta with a
batch id past the snapshot's high-water mark through
:meth:`~repro.core.ted.TedKeyManager.observe_batch`, which re-applies the
frequency effects without generating seeds. Every ``snapshot_every``
batches the store folds the log into a fresh snapshot and truncates it.

Staleness bound (DESIGN.md §12): the delta log is fsynced every
``sync_every`` batches, so after a power loss at the worst moment the
recovered sketch is missing at most ``sync_every`` acked batches — and a
plain process crash loses nothing, because every append is flushed to the
OS before the ack. Replaying a batch the client retries anyway
double-counts it, which is TED's fail-safe direction: over-estimated
frequencies can only make chunks *more* deduplicable, never leak more.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.ted import TedKeyManager
from repro.obs import metrics as obs_metrics
from repro.storage import crash
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.utils.varint import (
    decode_uvarint,
    decode_vectors,
    encode_uvarint,
    encode_uvarints,
    encode_vectors,
)

_MAGIC = b"TEDKMS2\n"
# The dense form (every counter, deflated); still read, never written.
_MAGIC_DENSE = b"TEDKMS1\n"
# Magic plus the body's CRC-32; both magics have the same length.
_PREFIX = len(_MAGIC) + 4

_REGISTRY = obs_metrics.get_registry()
_SNAPSHOTS_WRITTEN = _REGISTRY.counter(
    "ted_keymanager_snapshots_total",
    "Key-manager state snapshots published",
)
_RECOVERY_SNAPSHOTS = _REGISTRY.counter(
    "ted_recovery_km_snapshots_loaded_total",
    "Key-manager snapshots loaded during startup recovery",
)
_RECOVERY_DELTAS = _REGISTRY.counter(
    "ted_recovery_km_deltas_replayed_total",
    "Key-generation batches replayed from the delta log at recovery",
)


@dataclass
class RestoreReport:
    """What startup recovery found and replayed."""

    snapshot_loaded: bool = False
    deltas_replayed: int = 0


def _encode_batch(
    batch_id: int,
    client_id: str,
    sequence: int,
    hash_vectors: Sequence[Sequence[int]],
) -> bytes:
    cid = client_id.encode("utf-8")
    return b"".join(
        (
            encode_uvarint(batch_id),
            encode_uvarint(len(cid)),
            cid,
            encode_uvarint(sequence),
            encode_vectors(hash_vectors),
        )
    )


def _decode_batch(
    payload: bytes,
) -> Tuple[int, str, int, List[List[int]]]:
    batch_id, pos = decode_uvarint(payload, 0)
    cid_len, pos = decode_uvarint(payload, pos)
    client_id = payload[pos : pos + cid_len].decode("utf-8")
    pos += cid_len
    sequence, pos = decode_uvarint(payload, pos)
    vectors, _ = decode_vectors(payload, pos)
    return batch_id, client_id, sequence, vectors


def _inflate(data: bytes, size: int) -> bytes:
    """Inflate a deflate stream that must hold exactly ``size`` bytes.

    The output is capped at ``size + 1`` bytes, so a hostile stream
    cannot make recovery allocate more than the sketch it claims to be.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(data, size + 1)
    except zlib.error as exc:
        raise ValueError(f"counters are not a deflate stream ({exc})") from exc
    if len(raw) != size or not inflater.eof or inflater.unused_data:
        raise ValueError(
            f"counters inflate to {len(raw)} bytes, expected {size}"
        )
    return raw


def _encode_counters(counters: np.ndarray) -> Tuple[int, bytes]:
    """The sketch's non-zero cells as ``(cell count, deflated body)``.

    The body is the gaps between successive flat cell indices (the first
    counted from -1, so every gap is >= 1), then the cells' counts, as
    little-endian ``uint32`` values laid out byte plane by byte plane:
    the mostly-zero high bytes then deflate to almost nothing. Cost is
    one scan of the counters plus O(set cells), whatever the geometry.
    """
    flat = counters.ravel()
    cells = np.flatnonzero(flat != 0)
    values = np.concatenate(
        (np.diff(cells, prepend=-1).astype("<u4"), flat[cells].astype("<u4"))
    )
    planes = values.view(np.uint8).reshape(-1, 4).T
    return cells.size, zlib.compress(planes.tobytes())


def _decode_counters(
    body: bytes, cells: int, rows: int, width: int
) -> np.ndarray:
    """Inverse of :func:`_encode_counters`; validates before scattering."""
    size = rows * width
    if cells > size:
        raise ValueError(f"{cells} set cells exceed the {rows}x{width} sketch")
    raw = _inflate(body, 8 * cells)
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(4, 2 * cells)
    values = np.ascontiguousarray(planes.T).view("<u4").ravel()
    gaps, counts = values[:cells], values[cells:]
    counters = np.zeros(size, dtype=np.uint32)
    if cells:
        if gaps.min() == 0:
            raise ValueError("cell indices do not strictly increase")
        if counts.min() == 0:
            raise ValueError("a listed cell has a zero count")
        index = np.cumsum(gaps, dtype=np.int64) - 1
        if index[-1] >= size:
            raise ValueError(
                f"cell {index[-1]} is past the {rows}x{width} sketch"
            )
        counters[index] = counts
    return counters.reshape(rows, width)


def _decode_snapshot(
    blob: bytes, rows: int, width: int, fted: bool
) -> Tuple[List[int], np.ndarray, Dict[Tuple[int, ...], int]]:
    """Parse a CRC-checked snapshot of either magic into plain values.

    Returns the eight header fields, the ``rows`` x ``width`` counters
    and the frequency map. The map is the tuner's input, so it is only
    read for an FTED key manager; a fixed-``t`` one (a served shard
    observer included) tracks nothing and leaves it, and the reserved
    per-client slot after it, unread.

    Raises:
        ValueError: on a geometry mismatch or any malformed field.
    """
    payload = blob[_PREFIX:]
    header = []
    pos = 0
    for _ in range(8):
        value, pos = decode_uvarint(payload, pos)
        header.append(value)
    if header[:2] != [rows, width]:
        raise ValueError(
            f"sketch geometry {header[0]}x{header[1]} does not match "
            f"the configured {rows}x{width}"
        )
    if blob.startswith(_MAGIC_DENSE):
        length, pos = decode_uvarint(payload, pos)
        raw = _inflate(payload[pos : pos + length], 4 * rows * width)
        counters = np.frombuffer(raw, dtype=np.uint32).reshape(rows, width)
        counters = counters.copy()
    else:
        cells, pos = decode_uvarint(payload, pos)
        length, pos = decode_uvarint(payload, pos)
        counters = _decode_counters(
            payload[pos : pos + length], cells, rows, width
        )
    pos += length
    freq: Dict[Tuple[int, ...], int] = {}
    if fted:
        count, pos = decode_uvarint(payload, pos)
        for _ in range(count):
            size, pos = decode_uvarint(payload, pos)
            identity = []
            for _ in range(size):
                short_hash, pos = decode_uvarint(payload, pos)
                identity.append(short_hash)
            frequency, pos = decode_uvarint(payload, pos)
            freq[tuple(identity)] = frequency
    return header, counters, freq


class KeyManagerStateStore:
    """Snapshot + delta-log persistence for one key manager.

    Args:
        directory: state directory (created if missing).
        snapshot_every: fold the delta log into a snapshot after this
            many logged batches.
        sync_every: fsync the delta log every this many batches; 1 is
            fully durable per ack, larger trades a bounded number of
            lost batches (power loss only) for fewer barriers.

    Example:
        >>> import tempfile
        >>> store = KeyManagerStateStore(tempfile.mkdtemp())
        >>> km = TedKeyManager(secret=b"kappa", t=5)
        >>> store.restore_into(km).snapshot_loaded
        False
    """

    def __init__(
        self,
        directory,
        snapshot_every: int = 64,
        sync_every: int = 1,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.sync_every = sync_every
        crash.remove_stray_tmp_files(self.directory)
        self.snapshot_path = self.directory / "snapshot.bin"
        self._delta = WriteAheadLog(
            self.directory / "delta.log", scope="km.delta"
        )
        # Monotonic id per logged batch; snapshots record the high-water
        # mark so replay after a crash between snapshot-publish and
        # log-truncate skips deltas the snapshot already folded in.
        self._batch_id = 0
        self._batches_since_snapshot = 0
        self._batches_since_sync = 0

    # -- logging ----------------------------------------------------------

    def log_batch(
        self,
        client_id: str,
        sequence: int,
        hash_vectors: Sequence[Sequence[int]],
        key_manager: TedKeyManager,
    ) -> None:
        """Durably record one acked batch; snapshot on cadence.

        Must be called *after* the key manager processed the batch and
        *before* the response is released — the ack contract is that
        every acked batch is replayable.
        """
        self._batch_id += 1
        payload = _encode_batch(
            self._batch_id, client_id, sequence, hash_vectors
        )
        self._delta.append(OP_PUT, b"batch", payload)
        self._batches_since_sync += 1
        if self._batches_since_sync >= self.sync_every:
            self._delta.sync()
            self._batches_since_sync = 0
        self._batches_since_snapshot += 1
        if self._batches_since_snapshot >= self.snapshot_every:
            self.snapshot(key_manager)

    def snapshot(self, key_manager: TedKeyManager) -> None:
        """Publish a full-state snapshot and truncate the delta log.

        Ordering is the recovery invariant: the snapshot is durable
        *before* the log truncates. A crash between the two replays
        deltas the snapshot already contains — the batch-id high-water
        mark in the snapshot makes that replay a no-op.
        """
        blob = self._encode_snapshot(key_manager)
        crash.atomic_write_bytes(
            self.snapshot_path, blob, scope="km.snapshot"
        )
        self._delta.truncate()
        self._batches_since_snapshot = 0
        self._batches_since_sync = 0
        _SNAPSHOTS_WRITTEN.inc()

    # -- recovery ----------------------------------------------------------

    def restore_into(self, key_manager: TedKeyManager) -> RestoreReport:
        """Rebuild ``key_manager``'s frequency state from disk.

        Loads the snapshot (if an intact one exists), then replays every
        delta past its high-water mark via
        :meth:`TedKeyManager.observe_batch`. A snapshot that fails its
        CRC is ignored (recovery starts from the deltas alone); a torn
        delta tail stops replay there, per the WAL contract.

        Raises:
            ValueError: if the snapshot's sketch geometry does not match
                ``key_manager`` — that is a configuration error, not
                crash damage — or a CRC-valid snapshot body does not
                parse. ``key_manager`` is left untouched either way.
        """
        report = RestoreReport()
        snapshot_high = 0
        blob = None
        if self.snapshot_path.exists():
            blob = self.snapshot_path.read_bytes()
        if blob is not None and self._snapshot_intact(blob):
            snapshot_high = self._decode_snapshot_into(blob, key_manager)
            report.snapshot_loaded = True
            _RECOVERY_SNAPSHOTS.inc()
        for op, key, value in WriteAheadLog.replay(self._delta.path):
            if op != OP_PUT or key != b"batch":
                continue
            try:
                batch_id, _, _, vectors = _decode_batch(value)
            except (ValueError, IndexError):
                break  # torn/garbled tail record that passed the CRC
            self._batch_id = max(self._batch_id, batch_id)
            if batch_id <= snapshot_high:
                continue  # already folded into the snapshot
            key_manager.observe_batch(vectors)
            report.deltas_replayed += 1
            _RECOVERY_DELTAS.inc()
        self._batch_id = max(self._batch_id, snapshot_high)
        return report

    # -- snapshot codec ----------------------------------------------------

    @staticmethod
    def _snapshot_intact(blob: bytes) -> bool:
        if len(blob) < _PREFIX or blob[: len(_MAGIC)] not in (
            _MAGIC,
            _MAGIC_DENSE,
        ):
            return False
        crc = int.from_bytes(blob[len(_MAGIC) : _PREFIX], "little")
        return zlib.crc32(blob[_PREFIX:]) == crc

    def _encode_snapshot(self, key_manager: TedKeyManager) -> bytes:
        sketch = key_manager.sketch
        cells, counters = _encode_counters(sketch._counters)
        header = encode_uvarints(
            (
                sketch.rows,
                sketch.width,
                sketch.total,
                key_manager.t,
                key_manager._requests_in_batch,
                key_manager.stats.requests,
                key_manager.stats.batches_tuned,
                self._batch_id,
                cells,
                len(counters),
            )
        )
        # The frequency map, one flat run of varints: its size, then per
        # identity its length, its short hashes and its frequency. This
        # encode runs under the key-manager lock (DESIGN.md §12).
        freq = key_manager._freq_by_identity
        flat = [len(freq)]
        for identity, frequency in freq.items():
            flat.append(len(identity))
            flat.extend(identity)
            flat.append(frequency)
        # Reserved slot: older snapshots carry a per-client sequence map
        # here; it is written empty so the layout stays one format.
        flat.append(0)
        body = header + counters + encode_uvarints(flat)
        return _MAGIC + zlib.crc32(body).to_bytes(4, "little") + body

    def _decode_snapshot_into(
        self, blob: bytes, key_manager: TedKeyManager
    ) -> int:
        """Apply a verified snapshot; returns its batch-id high water.

        The whole snapshot is decoded before ``key_manager`` is touched,
        so one that fails to parse leaves it as it was.

        Raises:
            ValueError: naming the snapshot, if its geometry differs from
                ``key_manager``'s or its body is malformed.
        """
        sketch = key_manager.sketch
        try:
            header, counters, freq = _decode_snapshot(
                blob, sketch.rows, sketch.width, key_manager.is_fted
            )
        except ValueError as exc:
            raise ValueError(
                f"key-manager snapshot {self.snapshot_path}: {exc}"
            ) from exc
        (
            _,
            _,
            total,
            t,
            requests_in_batch,
            stat_requests,
            batches_tuned,
            batch_high,
        ) = header
        sketch._counters = counters
        sketch.total = total
        key_manager.t = t
        key_manager._requests_in_batch = requests_in_batch
        key_manager.stats.requests = stat_requests
        key_manager.stats.batches_tuned = batches_tuned
        key_manager._freq_by_identity.clear()
        key_manager._freq_by_identity.update(freq)
        return batch_high

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the delta-log file handle."""
        self._delta.close()
