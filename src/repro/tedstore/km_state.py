"""Durable key-manager state: sketch snapshots plus a batch delta log.

The key manager is the one stateful TEDStore service whose state exists
nowhere else: the Count-Min sketch, the FTED frequency map, and the tuned
``t`` accumulate across every client's uploads, and losing them on a crash
would silently change which chunks deduplicate (a restarted sketch counts
from zero, so previously-frequent chunks look rare and draw random seeds —
storage blowup with no error anywhere). This module makes that state
crash-durable with the classic snapshot + log pair:

* a **snapshot** — the full sketch counters (zlib-compressed; they are
  mostly zeros), the FTED frequency map, ``t`` and the batch-position
  counters (a trailing per-client slot is reserved and written empty) —
  published atomically via the durable-write shim (crash scope
  ``km.snapshot``);
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
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.ted import TedKeyManager
from repro.obs import metrics as obs_metrics
from repro.storage import crash
from repro.storage.wal import OP_PUT, WriteAheadLog
from repro.utils.varint import decode_uvarint, encode_uvarint

_MAGIC = b"TEDKMS1\n"

_REGISTRY = obs_metrics.get_registry()
_SNAPSHOTS_WRITTEN = _REGISTRY.counter(
    "ted_keymanager_snapshots_total",
    "Key-manager state snapshots published",
)
_BATCHES_LOGGED = _REGISTRY.counter(
    "ted_keymanager_state_batches_logged_total",
    "Key-generation batches appended to the durable delta log",
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
    out = bytearray()
    out.extend(encode_uvarint(batch_id))
    out.extend(encode_uvarint(len(cid)))
    out.extend(cid)
    out.extend(encode_uvarint(sequence))
    out.extend(encode_uvarint(len(hash_vectors)))
    for vector in hash_vectors:
        out.extend(encode_uvarint(len(vector)))
        for short_hash in vector:
            out.extend(encode_uvarint(short_hash))
    return bytes(out)


def _decode_batch(
    payload: bytes,
) -> Tuple[int, str, int, List[List[int]]]:
    batch_id, pos = decode_uvarint(payload, 0)
    cid_len, pos = decode_uvarint(payload, pos)
    client_id = payload[pos : pos + cid_len].decode("utf-8")
    pos += cid_len
    sequence, pos = decode_uvarint(payload, pos)
    count, pos = decode_uvarint(payload, pos)
    vectors: List[List[int]] = []
    for _ in range(count):
        length, pos = decode_uvarint(payload, pos)
        vector = []
        for _ in range(length):
            value, pos = decode_uvarint(payload, pos)
            vector.append(value)
        vectors.append(vector)
    return batch_id, client_id, sequence, vectors


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
        _BATCHES_LOGGED.inc()
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
        :meth:`TedKeyManager.observe_batch`. A corrupt snapshot is
        ignored (recovery starts from the deltas alone); a torn delta
        tail stops replay there, per the WAL contract.

        Raises:
            ValueError: if the snapshot's sketch geometry does not match
                ``key_manager`` — that is a configuration error, not
                crash damage.
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
        if len(blob) < len(_MAGIC) + 4 or blob[: len(_MAGIC)] != _MAGIC:
            return False
        crc = int.from_bytes(blob[len(_MAGIC) : len(_MAGIC) + 4], "little")
        return zlib.crc32(blob[len(_MAGIC) + 4 :]) == crc

    def _encode_snapshot(self, key_manager: TedKeyManager) -> bytes:
        sketch = key_manager.sketch
        counters = zlib.compress(sketch._counters.tobytes())
        payload = bytearray()
        for value in (
            sketch.rows,
            sketch.width,
            sketch.total,
            key_manager.t,
            key_manager._requests_in_batch,
            key_manager.stats.requests,
            key_manager.stats.batches_tuned,
            self._batch_id,
        ):
            payload.extend(encode_uvarint(value))
        payload.extend(encode_uvarint(len(counters)))
        payload.extend(counters)
        freq = key_manager._freq_by_identity
        payload.extend(encode_uvarint(len(freq)))
        for identity, frequency in freq.items():
            payload.extend(encode_uvarint(len(identity)))
            for short_hash in identity:
                payload.extend(encode_uvarint(short_hash))
            payload.extend(encode_uvarint(frequency))
        # Reserved slot: older snapshots carry a per-client sequence map
        # here; it is written empty so the layout stays one format.
        payload.extend(encode_uvarint(0))
        body = bytes(payload)
        return _MAGIC + zlib.crc32(body).to_bytes(4, "little") + body

    def _decode_snapshot_into(
        self, blob: bytes, key_manager: TedKeyManager
    ) -> int:
        """Apply a verified snapshot; returns its batch-id high water.

        The frequency map is the tuner's input, so only an FTED key
        manager takes it; a fixed-``t`` one (a served shard observer
        included) tracks nothing and leaves it — and the reserved
        per-client slot after it — unread.
        """
        payload = blob[len(_MAGIC) + 4 :]
        pos = 0
        values = []
        for _ in range(8):
            value, pos = decode_uvarint(payload, pos)
            values.append(value)
        (
            rows,
            width,
            total,
            t,
            requests_in_batch,
            stat_requests,
            batches_tuned,
            batch_high,
        ) = values
        sketch = key_manager.sketch
        if rows != sketch.rows or width != sketch.width:
            raise ValueError(
                f"snapshot sketch geometry {rows}x{width} does not match "
                f"the configured {sketch.rows}x{sketch.width}"
            )
        counters_len, pos = decode_uvarint(payload, pos)
        raw = zlib.decompress(payload[pos : pos + counters_len])
        pos += counters_len
        sketch._counters = np.frombuffer(raw, dtype=np.uint32).reshape(
            rows, width
        ).copy()
        sketch.total = total
        key_manager.t = t
        key_manager._requests_in_batch = requests_in_batch
        key_manager.stats.requests = stat_requests
        key_manager.stats.batches_tuned = batches_tuned
        key_manager._freq_by_identity.clear()
        if not key_manager.is_fted:
            return batch_high
        freq_count, pos = decode_uvarint(payload, pos)
        for _ in range(freq_count):
            length, pos = decode_uvarint(payload, pos)
            identity = []
            for _ in range(length):
                short_hash, pos = decode_uvarint(payload, pos)
                identity.append(short_hash)
            frequency, pos = decode_uvarint(payload, pos)
            key_manager._freq_by_identity[tuple(identity)] = frequency
        return batch_high

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the delta-log file handle."""
        self._delta.close()
