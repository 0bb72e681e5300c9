"""Count-Min Sketch invariants: never under-counts, bounded over-counts."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.countmin import CountMinSketch


class TestBasics:
    def test_single_item(self):
        sketch = CountMinSketch(rows=4, width=64)
        assert sketch.update_item(b"a") == 1
        assert sketch.estimate_item(b"a") == 1

    def test_repeated_item_counts_up(self):
        sketch = CountMinSketch(rows=4, width=64)
        for i in range(10):
            assert sketch.update_item(b"a") == i + 1

    def test_unseen_item_with_empty_sketch(self):
        sketch = CountMinSketch(rows=4, width=64)
        assert sketch.estimate_item(b"nope") == 0

    def test_total_tracks_stream_length(self):
        sketch = CountMinSketch(rows=2, width=32)
        for i in range(17):
            sketch.update_item(bytes([i]))
        assert sketch.total == 17

    def test_reset(self):
        sketch = CountMinSketch(rows=2, width=32)
        sketch.update_item(b"a")
        sketch.reset()
        assert sketch.total == 0
        assert sketch.estimate_item(b"a") == 0

    @pytest.mark.parametrize("rows,width", [(0, 8), (4, 0), (-1, 8)])
    def test_invalid_geometry(self, rows, width):
        with pytest.raises(ValueError):
            CountMinSketch(rows=rows, width=width)

    def test_wrong_hash_count_rejected(self):
        sketch = CountMinSketch(rows=4, width=64)
        with pytest.raises(ValueError):
            sketch.update([1, 2, 3])

    @pytest.mark.parametrize("conservative", [False, True])
    @pytest.mark.parametrize("bad", [64, 70_000, -1, 2**64])
    def test_out_of_range_hash_rejected(self, conservative, bad):
        """Short hashes arrive from clients: a bad index is a typed
        error and the sketch is exactly as it was — scalar and batched
        paths, including a batch whose *last* item is the bad one."""
        sketch = CountMinSketch(rows=4, width=64, conservative=conservative)
        sketch.update([1, 2, 3, 4])
        counters = sketch._counters.copy()
        for attempt in (
            lambda: sketch.update([5, bad, 6, 7]),
            lambda: sketch.update_batch([[5, 6, 7, 8], [9, 10, 11, bad]]),
            lambda: sketch.estimate([bad, 1, 2, 3]),
        ):
            with pytest.raises(ValueError, match="short hash out of range"):
                attempt()
            assert sketch.total == 1
            assert (sketch._counters == counters).all()
        assert sketch.update_batch([[1, 2, 3, 4]]) == [2]

    def test_memory_accounting(self):
        sketch = CountMinSketch(rows=4, width=1024)
        assert sketch.memory_bytes() == 4 * 1024 * 4

    def test_error_bound_formula(self):
        import math

        sketch = CountMinSketch(rows=4, width=100)
        for i in range(50):
            sketch.update_item(bytes([i]))
        assert sketch.error_bound() == pytest.approx(50 * math.e / 100)


class TestNeverUndercounts:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=300),
        st.integers(1, 4),
        st.sampled_from([8, 64, 1024]),
    )
    def test_estimate_at_least_true_count(self, stream, rows, width):
        # The defining one-sided error guarantee of the CM sketch.
        sketch = CountMinSketch(rows=rows, width=width)
        truth = collections.Counter()
        for value in stream:
            item = value.to_bytes(2, "big")
            sketch.update_item(item)
            truth[item] += 1
        for item, count in truth.items():
            assert sketch.estimate_item(item) >= count

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_conservative_update_never_undercounts(self, stream):
        sketch = CountMinSketch(rows=4, width=16, conservative=True)
        truth = collections.Counter()
        for value in stream:
            item = value.to_bytes(2, "big")
            sketch.update_item(item)
            truth[item] += 1
        for item, count in truth.items():
            assert sketch.estimate_item(item) >= count


class TestAccuracy:
    def test_exact_when_width_ample(self):
        # With far more counters than items, collisions are unlikely and
        # estimates should be exact.
        sketch = CountMinSketch(rows=4, width=2**16)
        truth = collections.Counter()
        for i in range(200):
            item = (i % 40).to_bytes(2, "big")
            sketch.update_item(item)
            truth[item] += 1
        exact = sum(
            sketch.estimate_item(item) == count
            for item, count in truth.items()
        )
        assert exact == len(truth)

    def test_conservative_no_worse_than_plain(self):
        plain = CountMinSketch(rows=4, width=32)
        conservative = CountMinSketch(rows=4, width=32, conservative=True)
        stream = [(i * 7919) % 100 for i in range(500)]
        for value in stream:
            item = value.to_bytes(2, "big")
            plain.update_item(item)
            conservative.update_item(item)
        for value in set(stream):
            item = value.to_bytes(2, "big")
            assert conservative.estimate_item(item) <= plain.estimate_item(item)

    def test_narrow_width_overestimates(self):
        # The over-estimation regime Experiment A.2 relies on: shrinking w
        # inflates frequencies.
        wide = CountMinSketch(rows=4, width=2**14)
        narrow = CountMinSketch(rows=4, width=8)
        for i in range(2000):
            item = i.to_bytes(4, "big")
            wide.update_item(item)
            narrow.update_item(item)
        wide_sum = sum(
            wide.estimate_item(i.to_bytes(4, "big")) for i in range(100)
        )
        narrow_sum = sum(
            narrow.estimate_item(i.to_bytes(4, "big")) for i in range(100)
        )
        assert narrow_sum > wide_sum


class TestMerge:
    def test_merge_equals_combined_stream(self):
        a = CountMinSketch(rows=3, width=64)
        b = CountMinSketch(rows=3, width=64)
        for i in range(50):
            a.update_item(bytes([i % 10]))
            b.update_item(bytes([i % 7]))
        combined = CountMinSketch(rows=3, width=64)
        for i in range(50):
            combined.update_item(bytes([i % 10]))
        for i in range(50):
            combined.update_item(bytes([i % 7]))
        a.merge(b)
        for i in range(10):
            assert a.estimate_item(bytes([i])) == combined.estimate_item(
                bytes([i])
            )
        assert a.total == combined.total

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValueError):
            CountMinSketch(rows=3, width=64).merge(
                CountMinSketch(rows=4, width=64)
            )

    def test_merge_rejects_conservative(self):
        with pytest.raises(ValueError):
            CountMinSketch(rows=3, width=64, conservative=True).merge(
                CountMinSketch(rows=3, width=64, conservative=True)
            )
