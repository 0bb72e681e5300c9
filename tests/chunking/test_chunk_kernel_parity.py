"""Vectorized chunk-boundary kernels must cut exactly like the references.

Cut points decide chunk identity, which decides fingerprints, keys, and
ciphertexts — a one-byte divergence between the numpy scan kernels and
the per-byte reference scans (DESIGN.md §16) would change every stored
byte downstream. These tests pin ``chunk()`` — and, region by region,
the kernel itself, whatever the region's size — to
``_gear_cut_reference`` / ``_rabin_cut_reference`` on random data and on
the adversarial shapes that stress the kernel mechanics: empty/1-byte
inputs, boundaries straddling the warm-up window, and cuts landing
exactly on scan-segment edges.
"""

import random

import pytest

from repro.chunking import cdc
from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.chunking.rabin import (
    DEFAULT_WINDOW_SIZE,
    RabinFingerprint,
    rolling_tables,
)


def _assert_parity(chunker, data):
    """``chunk()`` ≡ a chunker driven only by the per-byte reference."""
    gear = chunker.algorithm == "gear"
    reference = (
        chunker._gear_cut_reference if gear else chunker._rabin_cut_reference
    )
    kernel = chunker._gear_cut_kernel if gear else chunker._rabin_cut_kernel
    params = chunker.params
    expected = []
    start = 0
    while start < len(data):
        end = min(start + params.max_size, len(data))
        scan_from = start + params.min_size
        cut = end
        if scan_from < end:
            cut = reference(data, start, scan_from, end)
            # chunk() picks the kernel only for large regions; hold the
            # kernel to the reference on the small ones too.
            assert kernel(data, start, scan_from, end) == cut
        expected.append(data[start:cut])
        start = cut
    assert list(chunker.chunk(data)) == expected
    assert b"".join(expected) == data


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
def test_window_straddling_boundaries(algorithm):
    # Scan regions sized around the kernel's segment length and the
    # rolling window: lengths that put the force-cut or the first scan
    # position within one window of a segment edge.
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
    # Below _MIN_KERNEL_SCAN chunk() never enters the kernel: the
    # threshold keeps numpy call overhead off tiny regions. This guards
    # the guard.
    chunker = ContentDefinedChunker(ChunkerParams(16, 32, 64))
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
