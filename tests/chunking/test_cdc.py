"""Content-defined chunking: losslessness, bounds, shift resistance."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import cdc
from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker


def _pseudo_random(size: int, seed: int = 0) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(
            hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        )
        counter += 1
    return bytes(out[:size])


_PARAMS = ChunkerParams(min_size=256, avg_size=512, max_size=1024)


class TestParams:
    def test_defaults_match_paper(self):
        params = ChunkerParams()
        assert (params.min_size, params.avg_size, params.max_size) == (
            4096,
            8192,
            16384,
        )

    @pytest.mark.parametrize(
        "mn,avg,mx",
        [(0, 8, 16), (16, 8, 16), (8, 16, 8), (4, 7, 16)],  # 7 not pow2
    )
    def test_invalid_params(self, mn, avg, mx):
        with pytest.raises(ValueError):
            ChunkerParams(min_size=mn, avg_size=avg, max_size=mx)

    def test_mask(self):
        assert ChunkerParams(4, 8, 16).mask == 7


class TestChunking:
    @pytest.mark.parametrize("algorithm", ["gear", "rabin"])
    def test_lossless(self, algorithm):
        chunker = ContentDefinedChunker(_PARAMS, algorithm=algorithm)
        data = _pseudo_random(20_000)
        assert b"".join(chunker.chunk(data)) == data

    @pytest.mark.parametrize("algorithm", ["gear", "rabin"])
    def test_size_bounds(self, algorithm):
        chunker = ContentDefinedChunker(_PARAMS, algorithm=algorithm)
        chunks = list(chunker.chunk(_pseudo_random(30_000)))
        for chunk in chunks[:-1]:
            assert _PARAMS.min_size <= len(chunk) <= _PARAMS.max_size
        assert len(chunks[-1]) <= _PARAMS.max_size

    @pytest.mark.parametrize("algorithm", ["gear", "rabin"])
    def test_deterministic(self, algorithm):
        chunker = ContentDefinedChunker(_PARAMS, algorithm=algorithm)
        data = _pseudo_random(10_000)
        assert list(chunker.chunk(data)) == list(chunker.chunk(data))

    def test_average_size_in_ballpark(self):
        chunker = ContentDefinedChunker(_PARAMS)
        sizes = chunker.chunk_sizes(_pseudo_random(200_000))
        mean = sum(sizes) / len(sizes)
        # Expected mean is between avg and min+avg; allow a generous band.
        assert 300 <= mean <= 1024

    def test_shift_resistance(self):
        # Inserting bytes early must not re-chunk the whole stream — the
        # property that makes CDC dedup-friendly.
        chunker = ContentDefinedChunker(_PARAMS)
        original = _pseudo_random(50_000)
        shifted = original[:10_000] + b"INSERTED" + original[10_000:]
        original_chunks = set(chunker.chunk(original))
        shifted_chunks = set(chunker.chunk(shifted))
        shared = len(original_chunks & shifted_chunks)
        assert shared / len(original_chunks) > 0.8

    def test_empty_input(self):
        chunker = ContentDefinedChunker(_PARAMS)
        assert list(chunker.chunk(b"")) == []

    def test_input_smaller_than_min(self):
        chunker = ContentDefinedChunker(_PARAMS)
        assert list(chunker.chunk(b"tiny")) == [b"tiny"]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ContentDefinedChunker(_PARAMS, algorithm="sha-chunker")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=5000))
    def test_lossless_property(self, data):
        chunker = ContentDefinedChunker(
            ChunkerParams(min_size=32, avg_size=64, max_size=256)
        )
        assert b"".join(chunker.chunk(data)) == data

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=3000))
    def test_gear_rabin_both_lossless(self, data):
        params = ChunkerParams(min_size=32, avg_size=64, max_size=256)
        for algorithm in ("gear", "rabin"):
            chunker = ContentDefinedChunker(params, algorithm=algorithm)
            assert b"".join(chunker.chunk(data)) == data


class TestAccounting:
    @pytest.mark.parametrize("algorithm", ["gear", "rabin"])
    def test_abandoned_iterator_counts_only_yielded_bytes(self, algorithm):
        # Regression: once one chunk was out, the byte counter claimed the
        # whole input, so a failed upload over-reported what it chunked.
        data = _pseudo_random(1 << 20 if algorithm == "gear" else 40_000)
        bytes_before = cdc._CHUNK_BYTES.value
        pieces = ContentDefinedChunker(algorithm=algorithm).chunk(data)
        first = next(pieces)
        pieces.close()
        assert len(first) < len(data)
        assert cdc._CHUNK_BYTES.value - bytes_before == len(first)

    def test_full_pass_counts_every_byte(self):
        data = _pseudo_random(100_000)
        bytes_before = cdc._CHUNK_BYTES.value
        chunks = list(ContentDefinedChunker().chunk(data))
        assert cdc._CHUNK_BYTES.value - bytes_before == len(data)
        assert len(chunks) > 1
