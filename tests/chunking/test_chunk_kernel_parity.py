"""Vectorized chunk-boundary kernels must cut exactly like the references.

Cut points decide chunk identity, which decides fingerprints, keys, and
ciphertexts — a one-byte divergence between the numpy scans and the
per-byte reference scans (DESIGN.md §16) would change every stored byte
downstream. These tests pin ``chunk()`` to a chunker driven only by
``_gear_cut_reference`` / ``_rabin_cut_reference`` (and, region by
region, the Rabin kernel itself) on random data and on the adversarial
shapes that stress the kernel mechanics: empty/1-byte inputs,
boundaries straddling the warm-up window, cuts landing on Rabin segment
edges and within a few bytes of a gear candidate-block edge, chunks
shorter than the gear cut test's window, and inputs with only forced
cuts.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import cdc
from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.chunking.rabin import (
    DEFAULT_WINDOW_SIZE,
    RabinFingerprint,
    rolling_tables,
)


def _reference_chunks(chunker, data):
    """The chunks a chunker driven only by the per-byte reference makes.

    For Rabin it also holds the scan kernel to the reference on every
    region, including the small ones ``chunk()`` sends to the reference.
    """
    gear = chunker.algorithm == "gear"
    reference = (
        chunker._gear_cut_reference if gear else chunker._rabin_cut_reference
    )
    params = chunker.params
    expected = []
    start = 0
    while start < len(data):
        end = min(start + params.max_size, len(data))
        scan_from = start + params.min_size
        cut = end
        if scan_from < end:
            cut = reference(data, start, scan_from, end)
            if not gear:
                assert chunker._rabin_cut_kernel(
                    data, start, scan_from, end
                ) == cut
        expected.append(data[start:cut])
        start = cut
    assert b"".join(expected) == data
    return expected


def _assert_parity(chunker, data):
    """``chunk()`` ≡ a chunker driven only by the per-byte reference."""
    expected = _reference_chunks(chunker, data)
    assert list(chunker.chunk(data)) == expected
    return expected


def _cut_offsets(chunks):
    return list(itertools.accumulate(len(c) for c in chunks))


_PARAMS = [
    ChunkerParams(),
    ChunkerParams(64, 128, 256),
    # min_size 1 leaves the warm-up window nearly empty at scan start —
    # the zero-padding path of both kernels.
    ChunkerParams(1, 64, 300),
]

_ADVERSARIAL = [
    b"",
    b"x",
    b"\x00",
    b"\xff" * 4096,
    bytes(300),  # all-zero: no boundary until max_size force-cut
]


@pytest.mark.parametrize("algorithm", ["gear", "rabin"])
@pytest.mark.parametrize("params", _PARAMS)
def test_adversarial_inputs(algorithm, params):
    chunker = ContentDefinedChunker(params, algorithm=algorithm)
    for data in _ADVERSARIAL:
        _assert_parity(chunker, data)


@pytest.mark.parametrize("algorithm", ["gear", "rabin"])
def test_random_inputs(algorithm):
    rng = random.Random(17)
    chunker = ContentDefinedChunker(
        ChunkerParams(64, 128, 256), algorithm=algorithm
    )
    for size in (255, 256, 257, 5000, 50_000):
        data = bytes(rng.randrange(256) for _ in range(size))
        _assert_parity(chunker, data)
    # Shifted content: chunk boundaries must follow content, and kernel
    # and reference must agree after an insertion moves everything.
    base = bytes(rng.randrange(256) for _ in range(20_000))
    _assert_parity(chunker, base)
    _assert_parity(chunker, b"INSERTED" + base)


@pytest.mark.parametrize("algorithm", ["gear", "rabin"])
def test_window_straddling_boundaries(algorithm, monkeypatch):
    # Scan regions sized around the Rabin kernel's segment length (and a
    # gear candidate block shrunk to it) and the rolling window: lengths
    # that put the force-cut or the first scan position within one
    # window of a segment or block edge.
    monkeypatch.setattr(cdc, "_GEAR_BLOCK", cdc._SEGMENT)
    rng = random.Random(23)
    window = (
        DEFAULT_WINDOW_SIZE if algorithm == "rabin" else cdc._GEAR_WINDOW
    )
    chunker = ContentDefinedChunker(
        ChunkerParams(64, 4096, 16384), algorithm=algorithm
    )
    for delta in (-window - 1, -1, 0, 1, window + 1):
        size = cdc._SEGMENT + delta
        data = bytes(rng.randrange(256) for _ in range(size))
        _assert_parity(chunker, data)


def test_small_scans_use_reference():
    # Below _MIN_KERNEL_SCAN chunk() never enters the Rabin kernel: the
    # threshold keeps numpy call overhead off tiny regions. This guards
    # the guard.
    chunker = ContentDefinedChunker(ChunkerParams(16, 32, 64), "rabin")
    assert 64 - 16 < cdc._MIN_KERNEL_SCAN
    data = bytes(random.Random(3).randrange(256) for _ in range(1000))
    _assert_parity(chunker, data)


def test_rabin_tables_shared_across_instances():
    # Regression: the (shift, pop) tables were rebuilt per construction
    # (~512 modular operations each time); they are now module-cached,
    # so two fingerprints over the same (polynomial, window) alias the
    # same physical tuples.
    a = RabinFingerprint()
    b = RabinFingerprint()
    assert a._shift_table is b._shift_table
    assert a._pop_table is b._pop_table
    shift, pop = rolling_tables(a.polynomial, a.window_size)
    assert a._shift_table is shift and a._pop_table is pop


def test_shared_tables_identical_cut_points():
    rng = random.Random(29)
    data = bytes(rng.randrange(256) for _ in range(30_000))
    params = ChunkerParams(64, 128, 256)
    first = ContentDefinedChunker(params, algorithm="rabin")
    second = ContentDefinedChunker(params, algorithm="rabin")
    assert first._rabin._shift_table is second._rabin._shift_table
    assert list(first.chunk(data)) == list(second.chunk(data))


# --- gear: one candidate pass per block ------------------------------------

_BLOCK = cdc._GEAR_BLOCK


def _gear_low(data, i, bits):
    """Low ``bits`` bits of the gear fingerprint at ``i`` (whole buffer)."""
    mask = (1 << bits) - 1
    fp = 0
    for j in range(max(0, i - bits + 1), i + 1):
        fp = ((fp << 1) + cdc._GEAR_TABLE[data[j]]) & mask
    return fp


def _plant_cut(data, cut, bits):
    """Choose ``data[cut-2:cut]`` so that position ``cut - 1`` is the only
    gear candidate among the positions those two bytes reach."""
    mask = (1 << bits) - 1
    by_low = {cdc._GEAR_TABLE[y] & mask: y for y in range(256)}
    for x in range(256):
        data[cut - 2] = x
        prev = _gear_low(data, cut - 2, bits)
        y = by_low.get((mask - (prev << 1)) & mask)
        if y is None:
            continue
        data[cut - 1] = y
        reach = range(cut - 2, min(cut - 1 + bits, len(data)))
        if all((_gear_low(data, i, bits) == mask) == (i == cut - 1) for i in reach):
            return
    raise AssertionError(f"no two-byte candidate at {cut}")


def _plan_forced_grid(params, target):
    """Cut offsets to plant in zeros so the forced ``max_size`` grid that
    follows them passes through ``target``."""
    step, lo = params.max_size, params.min_size
    residue = target % step
    if residue == 0:
        return []
    if residue > lo:
        return [residue]
    first = (lo + step) // 2 + 1
    return [first, first + (residue - first) % step]


@pytest.mark.parametrize("offset", ["-b", -1, 0, 1, "b"])
def test_gear_cuts_at_block_edge(offset):
    # Cuts planted 1 and b bytes either side of the 1 MiB candidate-block
    # edge (b = mask bit length), in zeros that only force-cut otherwise.
    params = ChunkerParams()
    bits = params.mask.bit_length()
    delta = {"-b": -bits, "b": bits}.get(offset, offset)
    target = _BLOCK + delta
    data = bytearray(_BLOCK + 2 * params.max_size)
    for cut in _plan_forced_grid(params, target):
        _plant_cut(data, cut, bits)
    data = bytes(data)
    chunker = ContentDefinedChunker(params)
    assert target in _cut_offsets(_assert_parity(chunker, data))


def test_gear_longer_than_two_blocks():
    # Random content across two full block edges, with cuts consumed
    # over both refills.
    rng = random.Random(41)
    data = rng.randbytes(2 * _BLOCK + 12_345)
    chunker = ContentDefinedChunker(ChunkerParams(8192, 16384, 65536))
    cuts = _cut_offsets(_assert_parity(chunker, data))
    assert cuts[-1] == len(data) and len(cuts) > 2 * _BLOCK // 65536


@pytest.mark.parametrize("block", [13, 4096])
def test_gear_many_small_blocks(block, monkeypatch):
    # A shrunken block puts thousands of edges under random content, so
    # chunks straddle edges at every offset and scan regions span
    # several blocks.
    monkeypatch.setattr(cdc, "_GEAR_BLOCK", block)
    rng = random.Random(block)
    data = rng.randbytes(60_000)
    for params in (ChunkerParams(64, 128, 256), ChunkerParams(4096, 8192, 16384)):
        _assert_parity(ContentDefinedChunker(params), data)


@pytest.mark.parametrize(
    "params",
    [
        ChunkerParams(1, 64, 300),  # min_size 1 < b - 1 = 5
        ChunkerParams(3, 16, 40),
        ChunkerParams(1, 2, 3),
        ChunkerParams(1, 1, 4),  # mask 0: every position is a candidate
        ChunkerParams(5, 8192, 20000),  # b - 1 = 12 > min_size
    ],
)
def test_gear_min_size_below_mask_bits(params):
    # Positions whose low-bit window crosses the chunk start are tested
    # per chunk; the rest come from the buffer-wide candidates.
    rng = random.Random(params.max_size)
    for size in (1, 17, 700, 50_000):
        _assert_parity(ContentDefinedChunker(params), rng.randbytes(size))


@pytest.mark.parametrize("avg", [1 << 16, 1 << 17, 1 << 20])
def test_gear_wide_masks(avg):
    # avg 2^16 fills uint16; 2^17 and 2^20 need the uint32 path.
    params = ChunkerParams(avg // 8, avg, avg * 2)
    data = random.Random(avg).randbytes(3 * avg + 999)
    _assert_parity(ContentDefinedChunker(params), data)
    assert cdc._gear_table_low(params.mask.bit_length()).dtype.itemsize == (
        2 if avg <= 1 << 16 else 4
    )


@pytest.mark.parametrize(
    "pattern", [b"\x00", b"\xff", b"ab", bytes(range(256)), b"0123456789abcdef"]
)
def test_gear_zero_and_periodic_inputs_only_force_cut(pattern):
    # Content with no candidate anywhere is cut at max_size only, across
    # a full block edge.
    params = ChunkerParams(4096, 8192, 16384)
    data = (pattern * (_BLOCK // len(pattern) + 2))[: _BLOCK + 20_000]
    chunks = _assert_parity(ContentDefinedChunker(params), data)
    assert all(len(c) == params.max_size for c in chunks[:-1])


def test_gear_lazy_consumption(monkeypatch):
    # Candidates are found a block at a time as the cuts reach it: a
    # consumer that takes one chunk has paid for one block, and the
    # chunks taken one by one equal the reference's.
    calls = []
    original = ContentDefinedChunker._gear_candidates

    def recording(self, data, block_start):
        calls.append(block_start)
        return original(self, data, block_start)

    monkeypatch.setattr(ContentDefinedChunker, "_gear_candidates", recording)
    monkeypatch.setattr(cdc, "_GEAR_BLOCK", 8192)
    chunker = ContentDefinedChunker(ChunkerParams(256, 1024, 4096))
    data = random.Random(5).randbytes(5 * 8192 + 100)
    expected = _reference_chunks(chunker, data)
    pieces = chunker.chunk(data)
    assert next(pieces) == expected[0]
    assert calls == [0]
    for want in expected[1:]:
        assert next(pieces) == want
    with pytest.raises(StopIteration):
        next(pieces)
    assert calls == [0, 8192, 16384, 24576, 32768, 40960]


@settings(deadline=None)
@given(
    data=st.binary(max_size=3000),
    min_size=st.integers(1, 300),
    avg_bits=st.integers(0, 12),
    extra=st.integers(0, 700),
    block=st.sampled_from([1, 2, 63, 64, 1000, _BLOCK]),
)
def test_gear_parity_property(data, min_size, avg_bits, extra, block):
    avg = 1 << avg_bits
    params = ChunkerParams(min(min_size, avg), avg, avg + extra)
    with mock.patch.object(cdc, "_GEAR_BLOCK", block):
        _assert_parity(ContentDefinedChunker(params), data)
