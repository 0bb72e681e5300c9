"""Pure-Python MurmurHash3 (x64, 128-bit variant).

TEDStore uses MurmurHash3 for the short hashes sent to the key manager
(paper §4): the client computes one 128-bit MurmurHash3 digest per chunk and
splits it into ``r`` short hashes, each indexing a Count-Min Sketch row.

This is a from-scratch port of Austin Appleby's public-domain
``MurmurHash3_x64_128`` reference implementation. Correctness is checked in
the test suite against the SMHasher verification value (0x6384BA69).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F


def _rotl64(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def murmur3_x64_128(data: bytes, seed: int = 0) -> bytes:
    """Return the 16-byte MurmurHash3 x64 128-bit digest of ``data``.

    The digest is serialized as two little-endian 64-bit words (h1 then h2),
    matching the reference implementation's output layout.
    """
    length = len(data)
    h1 = seed & _MASK64
    h2 = seed & _MASK64

    nblocks = length // 16
    for block in range(nblocks):
        offset = block * 16
        k1 = int.from_bytes(data[offset : offset + 8], "little")
        k2 = int.from_bytes(data[offset + 8 : offset + 16], "little")

        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1
        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64

        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2
        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64

    tail = data[nblocks * 16 :]
    k1 = 0
    k2 = 0
    tail_len = len(tail)
    if tail_len >= 9:
        for i in range(tail_len - 1, 7, -1):
            k2 = (k2 << 8) | tail[i]
        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2
    if tail_len >= 1:
        for i in range(min(tail_len, 8) - 1, -1, -1):
            k1 = (k1 << 8) | tail[i]
        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64

    return h1.to_bytes(8, "little") + h2.to_bytes(8, "little")


def short_hashes(data: bytes, rows: int, width: int, seed: int = 0) -> List[int]:
    """Split one MurmurHash3 digest into ``rows`` short hashes in ``[0, width)``.

    This mirrors TEDStore's optimization (paper §4): instead of computing
    ``r`` independent hashes per chunk, the client computes one 128-bit
    MurmurHash3 and divides it into four short hashes. For ``rows > 4`` we
    chain additional digests (seeded by the block index) so the construction
    generalizes while staying a single hash computation in the default
    ``rows = 4`` configuration.

    Args:
        data: the chunk content (or its fingerprint, in trace-driven mode).
        rows: the number of sketch rows ``r``.
        width: the number of counters per row ``w``.
        seed: base seed for the digest chain.

    Returns:
        A list of ``rows`` counter indices.
    """
    if rows <= 0:
        raise ValueError("rows must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    indices: List[int] = []
    block = 0
    while len(indices) < rows:
        digest = murmur3_x64_128(data, seed=seed + block)
        for i in range(4):
            if len(indices) == rows:
                break
            word = int.from_bytes(digest[i * 4 : i * 4 + 4], "little")
            indices.append(word % width)
        block += 1
    return indices


#: Below this many fingerprints :func:`short_hashes_batch` loops over the
#: scalar :func:`short_hashes`: the numpy pass costs about 70 µs of array
#: calls whatever the batch size, so it only pays from here up
#: (DESIGN.md §16 has the measurement).
BATCH_MIN = 10

_U64 = np.uint64


def _rotl64_array(value: np.ndarray, shift: int) -> np.ndarray:
    return (value << _U64(shift)) | (value >> _U64(64 - shift))


def _fmix64_array(k: np.ndarray) -> np.ndarray:
    k ^= k >> _U64(33)
    k *= _U64(0xFF51AFD7ED558CCD)
    k ^= k >> _U64(33)
    k *= _U64(0xC4CEB9FE1A85EC53)
    k ^= k >> _U64(33)
    return k


def _murmur3_words(data: np.ndarray, seed: int) -> np.ndarray:
    """:func:`murmur3_x64_128` of every row of an ``(n, length)`` uint8
    array, as an ``(n, 4)`` array of its little-endian 32-bit words."""
    n, length = data.shape
    nblocks = length // 16
    h1 = np.full(n, seed & _MASK64, dtype=np.uint64)
    h2 = h1.copy()
    c1 = _U64(_C1)
    c2 = _U64(_C2)
    blocks = np.ascontiguousarray(data[:, : nblocks * 16]).view("<u8")
    for block in range(nblocks):
        k1 = blocks[:, 2 * block] * c1
        h1 ^= _rotl64_array(k1, 31) * c2
        h1 = _rotl64_array(h1, 27) + h2
        h1 = h1 * _U64(5) + _U64(0x52DCE729)
        k2 = blocks[:, 2 * block + 1] * c2
        h2 ^= _rotl64_array(k2, 33) * c1
        h2 = _rotl64_array(h2, 31) + h1
        h2 = h2 * _U64(5) + _U64(0x38495AB5)
    tail_len = length - nblocks * 16
    if tail_len:
        tail = np.zeros((n, 16), dtype=np.uint8)
        tail[:, :tail_len] = data[:, nblocks * 16 :]
        tail_words = tail.view("<u8")
        if tail_len >= 9:
            h2 ^= _rotl64_array(tail_words[:, 1] * c2, 33) * c1
        h1 ^= _rotl64_array(tail_words[:, 0] * c1, 31) * c2
    h1 ^= _U64(length)
    h2 ^= _U64(length)
    h1 += h2
    h2 += h1
    h1 = _fmix64_array(h1)
    h2 = _fmix64_array(h2)
    h1 += h2
    h2 += h1
    return np.stack((h1, h2), axis=1).view("<u4")


def short_hashes_batch(
    fingerprints: Sequence[bytes], rows: int, width: int, seed: int = 0
) -> List[List[int]]:
    """:func:`short_hashes` of every fingerprint, in one pass per batch.

    The fingerprints must share one length (a batch of digests from one
    hash profile). From :data:`BATCH_MIN` fingerprints up, one vectorised
    MurmurHash3 pass hashes the whole batch; below it the scalar
    reference is cheaper and is what runs. Either way the result is
    value-for-value :func:`short_hashes`, which the parity tests pin.

    Raises:
        ValueError: for non-positive ``rows``/``width`` or fingerprints
            of unequal length.
    """
    if rows <= 0:
        raise ValueError("rows must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    count = len(fingerprints)
    if count < BATCH_MIN:
        return [short_hashes(fp, rows, width, seed) for fp in fingerprints]
    joined = b"".join(fingerprints)
    length = len(fingerprints[0])
    if len(joined) != count * length:
        raise ValueError("fingerprints in one batch must have equal length")
    data = np.frombuffer(joined, dtype=np.uint8).reshape(count, length)
    digests = -(-rows // 4)
    with np.errstate(over="ignore"):
        words = np.concatenate(
            [_murmur3_words(data, seed + block) for block in range(digests)],
            axis=1,
        )
    words = words[:, :rows]
    if width <= 0xFFFFFFFF:
        words = words % np.uint32(width)
    # A wider sketch leaves every 32-bit word below ``width`` as it is.
    return words.tolist()
