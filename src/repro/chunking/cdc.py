"""Content-defined chunking with min/avg/max size bounds (paper §4 defaults:
4 KB / 8 KB / 16 KB).

A boundary is declared at the first position past ``min_size`` where the
rolling fingerprint satisfies ``fp & mask == mask`` with
``mask = avg_size - 1`` (``avg_size`` must be a power of two), so boundaries
fall on content features and survive shifts — the property deduplication
depends on. Chunks are force-cut at ``max_size``.

Two rolling hashes are available:

* ``rabin`` — the faithful GF(2) Rabin fingerprint (:mod:`repro.chunking.rabin`).
* ``gear``  — a Gear/FastCDC-style multiply-free rolling hash, several times
  faster in pure Python; used by the throughput benchmarks. Both produce
  content-defined boundaries with the same statistical chunk-size profile.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.chunking.rabin import (
    DEFAULT_WINDOW_SIZE,
    RabinFingerprint,
    window_tables,
)
from repro.obs import metrics as obs_metrics
from repro.utils import kernels

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Gear history horizon: fp = ((fp << 1) + g[b]) mod 2^64 forgets a byte
#: completely once it has been shifted 64 positions, so the fingerprint
#: at any position is a function of at most the last 64 bytes.
_GEAR_WINDOW = 64

#: Scan-kernel segment length (positions per vectorized pass). Segments
#: give the vectorized scan the reference loop's early-exit behaviour at
#: batch granularity: a boundary in the first segment stops the scan
#: before the rest of the region is touched.
_SEGMENT = 4096

#: Below this many scan positions the numpy call overhead exceeds the
#: per-byte loop; fall through to the reference implementation.
_MIN_KERNEL_SCAN = 256

_REGISTRY = obs_metrics.get_registry()
_CHUNK_BYTES = _REGISTRY.counter(
    "ted_chunking_bytes_total", "Bytes run through content-defined chunking"
)
_CHUNK_COUNT = _REGISTRY.counter(
    "ted_chunking_chunks_total", "Chunks produced by content-defined chunking"
)


def _build_gear_table(seed: int = 0) -> List[int]:
    """Derive the 256-entry Gear table from SHA-256 so it needs no constants."""
    table = []
    for i in range(256):
        digest = hashlib.sha256(
            b"repro-gear" + seed.to_bytes(4, "big") + bytes([i])
        ).digest()
        table.append(int.from_bytes(digest[:8], "big"))
    return table


_GEAR_TABLE = _build_gear_table()
_GEAR_TABLE_NP = np.array(_GEAR_TABLE, dtype=np.uint64)
_GEAR_TABLE_NP.setflags(write=False)


@dataclass(frozen=True)
class ChunkerParams:
    """Size bounds for content-defined chunking.

    Attributes:
        min_size: no boundary is considered before this many bytes.
        avg_size: target average chunk size; must be a power of two.
        max_size: chunks are force-cut at this size.
    """

    min_size: int = 4096
    avg_size: int = 8192
    max_size: int = 16384

    def __post_init__(self) -> None:
        if not (0 < self.min_size <= self.avg_size <= self.max_size):
            raise ValueError(
                "require 0 < min_size <= avg_size <= max_size, got "
                f"{self.min_size}/{self.avg_size}/{self.max_size}"
            )
        if self.avg_size & (self.avg_size - 1):
            raise ValueError("avg_size must be a power of two")

    @property
    def mask(self) -> int:
        return self.avg_size - 1


class ContentDefinedChunker:
    """Splits byte streams into variable-size, content-defined chunks.

    Args:
        params: size bounds (defaults to the paper's 4/8/16 KB).
        algorithm: "gear" (fast, default) or "rabin" (faithful).

    Example:
        >>> chunker = ContentDefinedChunker(ChunkerParams(64, 128, 256))
        >>> data = bytes(range(256)) * 40
        >>> b"".join(chunker.chunk(data)) == data
        True
    """

    def __init__(
        self,
        params: ChunkerParams | None = None,
        algorithm: str = "gear",
    ) -> None:
        if algorithm not in ("gear", "rabin"):
            raise ValueError(f"unknown chunking algorithm: {algorithm!r}")
        self.params = params or ChunkerParams()
        self.algorithm = algorithm
        if algorithm == "rabin":
            self._rabin = RabinFingerprint(window_size=DEFAULT_WINDOW_SIZE)

    def chunk(self, data: bytes) -> Iterator[bytes]:
        """Yield consecutive chunks whose concatenation equals ``data``."""
        produced = 0
        try:
            if self.algorithm == "gear":
                inner = self._chunk_gear(data)
            else:
                inner = self._chunk_rabin(data)
            for piece in inner:
                produced += 1
                yield piece
        finally:
            # Accounting covers only what was actually consumed (an
            # abandoned iterator must not claim the whole input).
            _CHUNK_COUNT.inc(produced)
            if produced:
                _CHUNK_BYTES.inc(len(data))

    def chunk_sizes(self, data: bytes) -> List[int]:
        """Return only the chunk sizes (cheap path for analysis)."""
        return [len(c) for c in self.chunk(data)]

    def _chunk_gear(self, data: bytes) -> Iterator[bytes]:
        params = self.params
        length = len(data)
        start = 0
        while start < length:
            end = min(start + params.max_size, length)
            scan_from = start + params.min_size
            if scan_from >= end:
                yield data[start:end]
                start = end
                continue
            if end - scan_from >= _MIN_KERNEL_SCAN:
                cut = self._gear_cut_kernel(data, start, scan_from, end)
            else:
                cut = self._gear_cut_reference(data, start, scan_from, end)
            yield data[start:cut]
            start = cut

    def _gear_cut_reference(
        self, data: bytes, start: int, scan_from: int, end: int
    ) -> int:
        """Per-byte gear scan — the semantic spec for the kernel."""
        mask = self.params.mask
        table = _GEAR_TABLE
        fp = 0
        # Warm the hash over the min-size prefix so the boundary decision
        # at scan_from already reflects a full window of content.
        for i in range(max(start, scan_from - _GEAR_WINDOW), scan_from):
            fp = ((fp << 1) + table[data[i]]) & _MASK64
        for i in range(scan_from, end):
            fp = ((fp << 1) + table[data[i]]) & _MASK64
            if fp & mask == mask:
                return i + 1
        return end

    def _gear_cut_kernel(
        self, data: bytes, start: int, scan_from: int, end: int
    ) -> int:
        """Vectorized gear scan (DESIGN.md §16), identical to reference.

        ``fp_i = Σ_{k<64} g[data[i-k]] << k (mod 2^64)`` — the rolling
        recurrence unrolled into a 64-term shifted sum, evaluated for a
        whole segment of positions at once. Zero-padding the *mapped*
        array realizes the shorter warm-up window near ``start`` (absent
        bytes contribute nothing).
        """
        started = time.perf_counter()
        mask = np.uint64(self.params.mask)
        table = _GEAR_TABLE_NP
        warm = max(start, scan_from - _GEAR_WINDOW)
        horizon = _GEAR_WINDOW - 1
        cut = end
        scanned = 0
        for seg_start in range(scan_from, end, _SEGMENT):
            seg_end = min(seg_start + _SEGMENT, end)
            out_len = seg_end - seg_start
            lo = max(warm, seg_start - horizon)
            pad = horizon - (seg_start - lo)
            acc = np.zeros(horizon + out_len, dtype=np.uint64)
            acc[pad:] = table[
                np.frombuffer(
                    data, dtype=np.uint8, count=seg_end - lo, offset=lo
                )
            ]
            # Shifted-sum by doubling: after the log2(64) = 6 steps,
            # acc[j] = Σ_{k<64} g[data[j-k]] << k (mod 2^64) — six whole-
            # segment operations instead of one per window position.
            for n in (1, 2, 4, 8, 16, 32):
                acc[n:] += acc[:-n] << np.uint64(n)
            hits = np.nonzero((acc[horizon:] & mask) == mask)[0]
            scanned += out_len
            if hits.size:
                cut = seg_start + int(hits[0]) + 1
                break
        kernels.observe(
            "gear_scan", scanned, scanned, time.perf_counter() - started
        )
        return cut

    def _chunk_rabin(self, data: bytes) -> Iterator[bytes]:
        params = self.params
        length = len(data)
        start = 0
        while start < length:
            end = min(start + params.max_size, length)
            scan_from = start + params.min_size
            if scan_from >= end:
                yield data[start:end]
                start = end
                continue
            if end - scan_from >= _MIN_KERNEL_SCAN:
                cut = self._rabin_cut_kernel(data, start, scan_from, end)
            else:
                cut = self._rabin_cut_reference(data, start, scan_from, end)
            yield data[start:cut]
            start = cut

    def _rabin_cut_reference(
        self, data: bytes, start: int, scan_from: int, end: int
    ) -> int:
        """Rolling Rabin scan — the semantic spec for the kernel."""
        mask = self.params.mask
        rabin = self._rabin
        roll = rabin.roll
        window = rabin.window_size
        rabin.reset()
        for i in range(max(start, scan_from - window), scan_from):
            roll(data[i])
        for i in range(scan_from, end):
            if roll(data[i]) & mask == mask:
                return i + 1
        return end

    def _rabin_cut_kernel(
        self, data: bytes, start: int, scan_from: int, end: int
    ) -> int:
        """Vectorized Rabin scan over per-distance contribution tables.

        The windowed fingerprint is linear over GF(2):
        ``fp_i = XOR_{d<w} T[d][data[i-d]]`` with ``T[d][b] = b·x^(8d)
        mod P`` (:func:`repro.chunking.rabin.window_tables`). Byte 0
        contributes nothing in every row, so zero-padding the data
        realizes the partially-filled window near ``start`` exactly like
        the reference's zero-initialized ring buffer.
        """
        started = time.perf_counter()
        rabin = self._rabin
        window = rabin.window_size
        table = window_tables(rabin.polynomial, window)
        mask = np.uint64(self.params.mask)
        warm = max(start, scan_from - window)
        horizon = window - 1
        cut = end
        scanned = 0
        for seg_start in range(scan_from, end, _SEGMENT):
            seg_end = min(seg_start + _SEGMENT, end)
            out_len = seg_end - seg_start
            lo = max(warm, seg_start - horizon)
            pad = horizon - (seg_start - lo)
            raw = np.frombuffer(
                data, dtype=np.uint8, count=seg_end - lo, offset=lo
            )
            if pad:
                padded = np.zeros(horizon + out_len, dtype=np.uint8)
                padded[pad:] = raw
            else:
                padded = raw
            acc = np.zeros(out_len, dtype=np.uint64)
            for d in range(window):
                acc ^= table[d][
                    padded[horizon - d : horizon - d + out_len]
                ]
            hits = np.nonzero((acc & mask) == mask)[0]
            scanned += out_len
            if hits.size:
                cut = seg_start + int(hits[0]) + 1
                break
        kernels.observe(
            "rabin_scan", scanned, scanned, time.perf_counter() - started
        )
        return cut
