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

import bisect
import functools
import hashlib
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.chunking.rabin import (
    DEFAULT_WINDOW_SIZE,
    RabinFingerprint,
    window_tables,
)
from repro.obs import metrics as obs_metrics

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Gear history horizon: fp = ((fp << 1) + g[b]) mod 2^64 forgets a byte
#: completely once it has been shifted 64 positions, so the fingerprint
#: at any position is a function of at most the last 64 bytes.
_GEAR_WINDOW = 64

#: Positions per gear candidate pass. Candidates are found a block at a
#: time, as the chunk boundaries reach it, so memory stays bounded on
#: large inputs and an abandoned iterator stops scanning.
_GEAR_BLOCK = 1 << 20

#: Rabin scan-kernel segment length (positions per vectorized pass).
#: Segments give the vectorized scan the reference loop's early-exit
#: behaviour at batch granularity: a boundary in the first segment stops
#: the scan before the rest of the region is touched.
_SEGMENT = 4096

#: Below this many scan positions the numpy call overhead exceeds the
#: per-byte Rabin loop; fall through to the reference implementation.
_MIN_KERNEL_SCAN = 256

_REGISTRY = obs_metrics.get_registry()
_CHUNK_BYTES = _REGISTRY.counter(
    "ted_chunking_bytes_total", "Bytes run through content-defined chunking"
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


@functools.lru_cache(maxsize=None)
def _gear_table_low(bits: int) -> np.ndarray:
    """The gear table cut to the narrowest unsigned dtype of ``bits`` bits."""
    dtype = next(
        t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
        if np.iinfo(t).bits >= bits
    )
    table = _GEAR_TABLE_NP.astype(dtype)
    table.setflags(write=False)
    return table


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
        produced_bytes = 0
        try:
            if self.algorithm == "gear":
                inner = self._chunk_gear(data)
            else:
                inner = self._chunk_rabin(data)
            for piece in inner:
                produced_bytes += len(piece)
                yield piece
        finally:
            # Accounting covers only what was actually consumed (an
            # abandoned iterator must not claim the whole input).
            _CHUNK_BYTES.inc(produced_bytes)

    def chunk_sizes(self, data: bytes) -> List[int]:
        """Return only the chunk sizes (cheap path for analysis)."""
        return [len(c) for c in self.chunk(data)]

    def _chunk_gear(self, data: bytes) -> Iterator[bytes]:
        """Cut at the first candidate in each chunk's scan region.

        The cut test reads the low ``bits = mask.bit_length()`` bits of
        the fingerprint, and those depend only on the last ``bits``
        bytes (older terms are shifted above them). Once a chunk is
        ``bits - 1`` bytes long, whether a position is a candidate no
        longer depends on where the chunk started, so candidates are
        found once per buffer (:meth:`_gear_candidates`) and each cut is
        the first of them in ``[scan_from, end)``. Only the positions
        nearer than that to the chunk start, which exist when
        ``min_size < bits - 1``, are tested per chunk.
        """
        params = self.params
        length = len(data)
        head = max(0, params.mask.bit_length() - 1 - params.min_size)
        cuts: List[int] = []  # candidate cut offsets (position + 1)
        pos = 0  # first entry of ``cuts`` not yet passed
        covered = 0  # candidates are known for positions below this
        start = 0
        while start < length:
            end = min(start + params.max_size, length)
            scan_from = start + params.min_size
            cut = end
            if scan_from < end:
                cut = self._gear_head_cut(
                    data, start, scan_from, min(scan_from + head, end)
                )
                if cut is None:
                    while covered < end:
                        cuts = cuts[pos:] + self._gear_candidates(data, covered)
                        pos = 0
                        covered = min(covered + _GEAR_BLOCK, length)
                    pos = bisect.bisect_right(cuts, scan_from + head, pos)
                    found = pos < len(cuts) and cuts[pos] <= end
                    cut = cuts[pos] if found else end
            yield data[start:cut]
            start = cut

    def _gear_candidates(self, data: bytes, block_start: int) -> List[int]:
        """Cut offsets of every candidate in one block of ``data``.

        ``fp_i mod 2^bits = Σ_{k<bits} g[data[i-k]] << k`` is evaluated
        for the whole block by doubling (``acc[n:] += acc[:-n] << n``) in
        the narrowest dtype that holds ``bits`` bits — uint16 and four
        steps for the default 8 KiB average. Bytes before the buffer
        contribute nothing, exactly as in the reference's warm-up.
        """
        mask = self.params.mask
        bits = mask.bit_length()
        table = _gear_table_low(bits)
        block_end = min(block_start + _GEAR_BLOCK, len(data))
        lo = max(0, block_start - max(bits - 1, 0))
        acc = np.take(
            table,
            np.frombuffer(data, dtype=np.uint8, count=block_end - lo, offset=lo),
        )
        n = 1
        while n < bits:
            acc[n:] += acc[:-n] << table.dtype.type(n)
            n <<= 1
        low = acc[block_start - lo :] & table.dtype.type(mask)
        hits = np.flatnonzero(low == mask)
        return (hits + (block_start + 1)).tolist()

    def _gear_head_cut(
        self, data: bytes, start: int, scan_from: int, stop: int
    ) -> int | None:
        """First cut in ``[scan_from, stop)``, or None, rolled from ``start``.

        These positions' low-bit window reaches back before the chunk,
        where the buffer-wide candidates would see the previous chunk's
        bytes.
        """
        if stop <= scan_from:
            return None
        mask = self.params.mask
        fp = 0
        for i in range(start, stop):
            fp = ((fp << 1) + _GEAR_TABLE[data[i]]) & mask
            if i >= scan_from and fp == mask:
                return i + 1
        return None

    def _gear_cut_reference(
        self, data: bytes, start: int, scan_from: int, end: int
    ) -> int:
        """Per-byte gear scan — the semantic spec for :meth:`_chunk_gear`."""
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
        rabin = self._rabin
        window = rabin.window_size
        table = window_tables(rabin.polynomial, window)
        mask = np.uint64(self.params.mask)
        warm = max(start, scan_from - window)
        horizon = window - 1
        cut = end
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
            if hits.size:
                cut = seg_start + int(hits[0]) + 1
                break
        return cut
