"""Count-Min Sketch (Cormode & Muthukrishnan [23]) for chunk frequencies.

TED's key manager estimates the frequency of every chunk with an ``r x w``
counter array (paper §3.3): each of the ``r`` short hashes supplied by the
client indexes one counter per row; updates increment those counters, and
the estimate is the row-wise minimum. The estimate never under-counts, and
over-counts are bounded by ``n * e / w`` with probability at least
``1 - e^{-r}``.

Two update rules are provided:

* ``plain`` — increment all ``r`` hashed counters (the paper's rule).
* ``conservative`` — increment only the counters equal to the current
  minimum (conservative update / CU sketch), which strictly reduces
  over-estimation at identical memory cost. Exposed for the A.2 ablation
  called out in DESIGN.md §6.

The sketch accepts *pre-computed* short hashes, because in TED the client —
not the key manager — computes them (the key manager must not see chunk
identities), and also offers ``update_item``/``estimate_item`` conveniences
that hash internally via MurmurHash3 for standalone use.
"""

from __future__ import annotations

import math
import time
from typing import List, Sequence

import numpy as np

from repro.crypto.murmur3 import short_hashes
from repro.obs import metrics as obs_metrics

_REGISTRY = obs_metrics.get_registry()
_SKETCH_UPDATES = _REGISTRY.counter(
    "ted_sketch_updates_total", "Count-Min Sketch update operations"
)
_SKETCH_UPDATE_SECONDS = _REGISTRY.histogram(
    "ted_sketch_update_seconds", "Latency of one Count-Min Sketch update"
)


class CountMinSketch:
    """Fixed-memory frequency estimator.

    Args:
        rows: number of hash rows ``r`` (the paper defaults to 4).
        width: counters per row ``w`` (the paper sweeps 2^21..2^25).
        conservative: use the conservative-update rule instead of the
            paper's plain rule.
        seed: seed for the internal hash chain (only used by the
            ``*_item`` convenience methods).

    Example:
        >>> sketch = CountMinSketch(rows=4, width=1024)
        >>> sketch.update_item(b"chunk")
        1
        >>> sketch.estimate_item(b"chunk")
        1
    """

    def __init__(
        self,
        rows: int = 4,
        width: int = 2**20,
        conservative: bool = False,
        seed: int = 0,
    ) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        self.rows = rows
        self.width = width
        self.conservative = conservative
        self.seed = seed
        self._counters = np.zeros((rows, width), dtype=np.uint32)
        self.total = 0  # total updates observed (the stream length n)

    # -- core API on pre-computed short hashes ---------------------------

    def _range_error(self) -> ValueError:
        return ValueError(
            f"short hash out of range [0, {self.width}) for this sketch"
        )

    def _check_indices(self, indices: Sequence[int]) -> None:
        """Reject a malformed index vector before any counter moves.

        Short hashes come from clients; an index past ``width`` would
        otherwise fault halfway through an update, and a negative one
        would silently wrap to another counter.
        """
        if len(indices) != self.rows:
            raise ValueError(
                f"expected {self.rows} short hashes, got {len(indices)}"
            )
        if min(indices) < 0 or max(indices) >= self.width:
            raise self._range_error()

    def update(self, indices: Sequence[int]) -> int:
        """Record one occurrence; returns the post-update estimate.

        Args:
            indices: one counter index per row, each in ``[0, width)``.
        """
        self._check_indices(indices)
        start = time.perf_counter()
        self.total += 1
        counters = self._counters
        if self.conservative:
            current = min(
                int(counters[row, idx]) for row, idx in enumerate(indices)
            )
            new_value = current + 1
            for row, idx in enumerate(indices):
                if counters[row, idx] < new_value:
                    counters[row, idx] = new_value
            result = new_value
        else:
            minimum = None
            for row, idx in enumerate(indices):
                value = int(counters[row, idx]) + 1
                counters[row, idx] = value
                if minimum is None or value < minimum:
                    minimum = value
            result = int(minimum)
        _SKETCH_UPDATES.inc()
        _SKETCH_UPDATE_SECONDS.observe(time.perf_counter() - start)
        return result

    def update_batch(
        self, batch: Sequence[Sequence[int]]
    ) -> List[int]:
        """Record one occurrence per item; returns post-update estimates.

        Result-identical to calling :meth:`update` once per item in
        order: for every item the estimate is the row-wise minimum of
        its counters *after* its own increment, including increments
        contributed by earlier items in the same batch that hashed to
        the same cells. The batched path reads all touched counters in
        one fancy-indexed gather, recovers the within-batch collision
        history from each occurrence's rank among equal (row, col)
        cells, and writes all increments back with one ``np.add.at`` —
        one pass over the counter array per batch instead of ``r``
        scalar reads and writes per item.

        The conservative-update rule keeps the sequential loop (its
        writes depend on each item's min, which depends on prior
        writes — there is no closed form over the batch).
        """
        if not batch:
            return []
        start = time.perf_counter()
        try:
            idx = np.asarray(batch, dtype=np.int64)
        except OverflowError:
            raise self._range_error() from None
        except ValueError:
            # numpy's own text ("inhomogeneous shape") names no rule.
            raise ValueError(
                f"expected {self.rows} short hashes per item, got a "
                f"ragged batch"
            ) from None
        if idx.ndim != 2 or idx.shape[1] != self.rows:
            raise ValueError(
                f"expected {self.rows} short hashes per item, got "
                f"shape {idx.shape}"
            )
        # The whole batch is validated before any counter moves, so a
        # rejected batch leaves the sketch exactly as it was.
        if idx.min() < 0 or idx.max() >= self.width:
            raise self._range_error()
        if self.conservative:
            return [self.update(indices) for indices in batch]
        n = idx.shape[0]
        counters = self._counters
        rows_idx = np.broadcast_to(
            np.arange(self.rows, dtype=np.int64), (n, self.rows)
        )
        before = counters[rows_idx, idx].astype(np.int64)
        # Within-batch collision history: occurrence k of a given
        # (row, col) cell — in item order — lands on a counter already
        # raised k times by this batch. A stable argsort groups equal
        # cells while preserving item order inside each group, so the
        # rank is just the offset from the group start.
        flat = (rows_idx * self.width + idx).ravel()
        order = np.argsort(flat, kind="stable")
        sorted_keys = flat[order]
        group_start = np.zeros(flat.size, dtype=np.int64)
        new_group = np.empty(flat.size, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        positions = np.arange(flat.size, dtype=np.int64)
        group_start = np.maximum.accumulate(
            np.where(new_group, positions, 0)
        )
        rank = np.empty(flat.size, dtype=np.int64)
        rank[order] = positions - group_start
        estimates = (
            (before + rank.reshape(n, self.rows) + 1).min(axis=1)
        )
        np.add.at(counters, (rows_idx, idx), 1)
        self.total += n
        _SKETCH_UPDATES.inc(n)
        _SKETCH_UPDATE_SECONDS.observe(time.perf_counter() - start)
        return estimates.tolist()

    def estimate(self, indices: Sequence[int]) -> int:
        """Row-wise minimum estimate for the item hashed to ``indices``."""
        self._check_indices(indices)
        return int(
            min(self._counters[row, idx] for row, idx in enumerate(indices))
        )

    # -- convenience API hashing internally -------------------------------

    def hash_item(self, item: bytes) -> List[int]:
        """Compute this sketch's short hashes for ``item``."""
        return short_hashes(item, self.rows, self.width, seed=self.seed)

    def update_item(self, item: bytes) -> int:
        """Hash ``item`` and record one occurrence."""
        return self.update(self.hash_item(item))

    def estimate_item(self, item: bytes) -> int:
        """Hash ``item`` and return its frequency estimate."""
        return self.estimate(self.hash_item(item))

    # -- bookkeeping -------------------------------------------------------

    def error_bound(self) -> float:
        """Additive over-estimation bound ``n * e / w`` (paper §3.3)."""
        return self.total * math.e / self.width

    def memory_bytes(self) -> int:
        """Memory consumed by the counter array (4-byte counters)."""
        return int(self._counters.nbytes)

    def reset(self) -> None:
        """Zero all counters and the stream length."""
        self._counters.fill(0)
        self.total = 0

    def merge(self, other: "CountMinSketch") -> None:
        """Fold another sketch into this one (same geometry required).

        Merging plain-update sketches preserves estimates for the combined
        stream; merging is not defined for conservative sketches.
        """
        if (self.rows, self.width, self.seed) != (
            other.rows,
            other.width,
            other.seed,
        ):
            raise ValueError("cannot merge sketches with different geometry")
        if self.conservative or other.conservative:
            raise ValueError("conservative sketches are not mergeable")
        self._counters += other._counters
        self.total += other.total
