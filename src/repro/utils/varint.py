"""Unsigned LEB128-style varint codec used by the storage formats.

SSTables, file recipes, and wire messages all store lengths and counters as
varints to keep the on-disk and on-wire footprint small, mirroring how
LevelDB encodes its internal keys.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a little-endian base-128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns:
        A ``(value, next_offset)`` tuple.

    Raises:
        ValueError: if the buffer ends mid-varint or the varint overflows
            64 bits (a corrupt-input guard, as in LevelDB).
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        if shift > 63:
            raise ValueError("varint too long (corrupt input)")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_vectors(vectors: Sequence[Sequence[int]]) -> bytes:
    """A counted list of counted integer vectors (keygen short hashes).

    The wire keygen messages and the key manager's delta log share this
    layout byte for byte.
    """
    out = bytearray(encode_uvarint(len(vectors)))
    for vector in vectors:
        out.extend(encode_uvarint(len(vector)))
        for value in vector:
            out.extend(encode_uvarint(value))
    return bytes(out)


def decode_vectors(
    data: bytes, offset: int = 0
) -> Tuple[List[List[int]], int]:
    """Inverse of :func:`encode_vectors`.

    Returns:
        A ``(vectors, next_offset)`` tuple.

    Raises:
        ValueError: if the buffer ends mid-list (see
            :func:`decode_uvarint`).
    """
    count, pos = decode_uvarint(data, offset)
    vectors: List[List[int]] = []
    for _ in range(count):
        length, pos = decode_uvarint(data, pos)
        vector = []
        for _ in range(length):
            value, pos = decode_uvarint(data, pos)
            vector.append(value)
        vectors.append(vector)
    return vectors, pos
