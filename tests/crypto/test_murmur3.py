"""MurmurHash3 correctness, including the full SMHasher verification."""

import hashlib
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from repro.crypto.murmur3 import (
    BATCH_MIN,
    murmur3_x64_128,
    short_hashes,
    short_hashes_batch,
)


class TestMurmur3:
    def test_smhasher_verification_value(self):
        # The canonical SMHasher self-test: hash keys of length 0..255 with
        # descending seeds, hash the concatenated digests, and compare the
        # first 4 LE bytes against the published verification constant for
        # MurmurHash3_x64_128. Passing this pins every code path (blocks,
        # all tail lengths, seeding, finalization).
        digests = b""
        for i in range(256):
            digests += murmur3_x64_128(bytes(range(i)), seed=256 - i)
        final = murmur3_x64_128(digests, seed=0)
        assert int.from_bytes(final[:4], "little") == 0x6384BA69

    def test_empty_input_zero_seed(self):
        assert murmur3_x64_128(b"", 0) == b"\x00" * 16

    def test_digest_length(self):
        assert len(murmur3_x64_128(b"abc")) == 16

    def test_deterministic(self):
        assert murmur3_x64_128(b"chunk") == murmur3_x64_128(b"chunk")

    def test_seed_changes_digest(self):
        assert murmur3_x64_128(b"chunk", 1) != murmur3_x64_128(b"chunk", 2)

    @given(st.binary(max_size=200), st.binary(max_size=200))
    def test_distinct_inputs_distinct_digests(self, a, b):
        if a != b:
            assert murmur3_x64_128(a) != murmur3_x64_128(b)

    @given(st.binary(max_size=64))
    def test_tail_lengths_all_work(self, data):
        digest = murmur3_x64_128(data)
        assert len(digest) == 16


class TestShortHashes:
    def test_count_and_range(self):
        hashes = short_hashes(b"chunk", rows=4, width=1024)
        assert len(hashes) == 4
        assert all(0 <= h < 1024 for h in hashes)

    def test_deterministic(self):
        assert short_hashes(b"x", 4, 100) == short_hashes(b"x", 4, 100)

    def test_more_than_four_rows_chains_digests(self):
        hashes = short_hashes(b"chunk", rows=7, width=512)
        assert len(hashes) == 7
        assert all(0 <= h < 512 for h in hashes)

    def test_first_four_stable_as_rows_grow(self):
        four = short_hashes(b"chunk", 4, 512)
        seven = short_hashes(b"chunk", 7, 512)
        assert seven[:4] == four

    def test_seed_changes_hashes(self):
        assert short_hashes(b"c", 4, 2**20, seed=0) != short_hashes(
            b"c", 4, 2**20, seed=9
        )

    @pytest.mark.parametrize("rows,width", [(0, 10), (-1, 10), (4, 0)])
    def test_invalid_parameters(self, rows, width):
        with pytest.raises(ValueError):
            short_hashes(b"c", rows, width)

    @given(st.binary(min_size=1, max_size=64), st.integers(1, 8))
    def test_property_range(self, data, rows):
        width = 97
        hashes = short_hashes(data, rows, width)
        assert len(hashes) == rows
        assert all(0 <= h < width for h in hashes)


def _packed_digest(vectors):
    """SHA-256 over every short hash as 8 little-endian bytes."""
    return hashlib.sha256(
        b"".join(v.to_bytes(8, "little") for row in vectors for v in row)
    ).hexdigest()


class TestShortHashesBatch:
    """The batched kernel is value-for-value the scalar reference."""

    @pytest.mark.parametrize("length", range(41))
    def test_parity_every_length(self, length):
        rng = random.Random(length)
        fps = [rng.randbytes(length) for _ in range(BATCH_MIN + 7)]
        for rows in (1, 4, 5, 8, 9):
            for seed in (0, 1, 2**64 - 1):
                assert short_hashes_batch(fps, rows, 2**21, seed) == [
                    short_hashes(fp, rows, 2**21, seed) for fp in fps
                ]

    @pytest.mark.parametrize("count", [0, 1, BATCH_MIN - 1, BATCH_MIN, 300])
    def test_parity_both_sides_of_the_crossover(self, count):
        rng = random.Random(count)
        fps = [rng.randbytes(32) for _ in range(count)]
        for width in (1, 97, 2**21, 2**32 + 15):
            assert short_hashes_batch(fps, 4, width) == [
                short_hashes(fp, 4, width) for fp in fps
            ]

    def test_matches_the_digest_words(self):
        fps = [bytes([i]) * 16 for i in range(BATCH_MIN)]
        for fp, row in zip(fps, short_hashes_batch(fps, 4, 2**32)):
            digest = murmur3_x64_128(fp)
            assert row == [
                int.from_bytes(digest[i : i + 4], "little")
                for i in range(0, 16, 4)
            ]

    def test_wraparound_raises_no_numpy_warning(self):
        fps = [b"\xff" * 32] * (BATCH_MIN + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short_hashes_batch(fps, 6, 2**21, seed=2**64 - 1)

    def test_returns_python_ints(self):
        rows = short_hashes_batch([b"x" * 32] * BATCH_MIN, 4, 2**21)
        assert all(type(value) is int for row in rows for value in row)

    def test_rejects_unequal_lengths(self):
        fps = [b"x" * 32] * BATCH_MIN + [b"y" * 16]
        with pytest.raises(ValueError, match="equal length"):
            short_hashes_batch(fps, 4, 2**21)

    @pytest.mark.parametrize("rows,width", [(0, 10), (-1, 10), (4, 0)])
    def test_invalid_parameters(self, rows, width):
        with pytest.raises(ValueError):
            short_hashes_batch([b"c"], rows, width)

    # Frozen from the scalar reference before the batched kernel
    # existed: SHA-256 over the packed short hashes of fingerprints
    # SHA-256(b"<length>-<i>")[:length], width 2**21, seed 0.
    _GOLDEN = {
        (32, 4, 2): "0d60392198d73db8e15f609ffc7e652aa0fc4e8e8652516364913ae1bf7de71b",
        (32, 4, 40): "e79af60e35423acf84e78a8172d185331ef7b211d53f6c58a29cda695cfda784",
        (32, 6, 2): "a7b839849c4af8ce9152088b0752c2da8f078d25c7cfd588e7a177498952d350",
        (32, 6, 40): "ff2c88563ccfa1ab4313e7711060890fd0ac7a8ac5374c6c96a3dd72eb7af598",
        (16, 4, 2): "e20f212b43b7bec104ea379773b86407129cb4022be1026188f5d1027514897c",
        (16, 4, 40): "66b079d8f40f1f0854f4b4ea0e8f7d5cbae4fdc14bb826d167b84569f05e30a2",
        (16, 6, 2): "3627d6a9d38945791552b11565c6100d772d164bb21e93bf7fb32d74c3eb88b3",
        (16, 6, 40): "387c6aba44831238a9a73fe5e194f79b54da56c27f80bc019102fe860356828e",
    }

    @pytest.mark.parametrize("length,rows,count", sorted(_GOLDEN))
    def test_golden_outputs(self, length, rows, count):
        fps = [
            hashlib.sha256(b"%d-%d" % (length, i)).digest()[:length]
            for i in range(count)
        ]
        got = short_hashes_batch(fps, rows, 2**21)
        assert _packed_digest(got) == self._GOLDEN[(length, rows, count)]

    def test_golden_values(self):
        fps = [hashlib.sha256(b"32-%d" % i).digest() for i in range(2)]
        assert short_hashes_batch(fps, 4, 2**21) == [
            [385649, 60314, 113266, 1571636],
            [2089034, 565191, 1051492, 1880689],
        ]

    def test_golden_counts_straddle_the_crossover(self):
        counts = {count for _, _, count in self._GOLDEN}
        assert min(counts) < BATCH_MIN <= max(counts)
