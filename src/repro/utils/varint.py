"""Unsigned LEB128-style varint codec used by the storage formats.

SSTables, file recipes, and wire messages all store lengths and counters as
varints to keep the on-disk and on-wire footprint small, mirroring how
LevelDB encodes its internal keys.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a little-endian base-128 varint."""
    return encode_uvarints((value,))


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


def encode_uvarints(values: Iterable[int]) -> bytes:
    """Encode a run of integers back to back, in one pass.

    The concatenation of each value's :func:`encode_uvarint` bytes,
    without a call and a ``bytes`` object per value.
    """
    out = bytearray()
    append = out.append
    for value in values:
        if value < 0x80:
            if value < 0:
                raise ValueError("varints encode non-negative integers only")
            append(value)
            continue
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def encode_vectors(vectors: Sequence[Sequence[int]]) -> bytes:
    """A counted list of counted integer vectors (keygen short hashes).

    The wire keygen messages and the key manager's delta log share this
    layout byte for byte.
    """
    flat = [len(vectors)]
    for vector in vectors:
        flat.append(len(vector))
        flat.extend(vector)
    return encode_uvarints(flat)


def decode_vectors(
    data: bytes, offset: int = 0
) -> Tuple[List[List[int]], int]:
    """Inverse of :func:`encode_vectors`, in one pass over the bytes.

    Each varint is decoded inline with :func:`decode_uvarint`'s checks
    and errors. Nothing is allocated by a claimed count: every value
    read consumes at least one byte, so a hostile count or length runs
    out of payload first.

    Returns:
        A ``(vectors, next_offset)`` tuple.

    Raises:
        ValueError: if the buffer ends mid-list (see
            :func:`decode_uvarint`).
    """
    count, pos = decode_uvarint(data, offset)
    vectors: List[List[int]] = []
    try:
        for _ in range(count):
            length = data[pos]
            pos += 1
            if length > 0x7F:
                length, pos = decode_uvarint(data, pos - 1)
            vector: List[int] = []
            append = vector.append
            for _ in range(length):
                # Unrolled for the one- to three-byte values short
                # hashes take; reading past the end is an IndexError.
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    append(byte)
                    continue
                value = byte & 0x7F
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    append(value | byte << 7)
                    continue
                value |= (byte & 0x7F) << 7
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    append(value | byte << 14)
                    continue
                value |= (byte & 0x7F) << 14
                shift = 21
                while True:
                    if shift > 63 and pos < len(data):
                        raise ValueError("varint too long (corrupt input)")
                    byte = data[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                append(value)
            vectors.append(vector)
    except IndexError:
        raise ValueError("truncated varint") from None
    return vectors, pos
