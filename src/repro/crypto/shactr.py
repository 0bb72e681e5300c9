"""SHA-256 counter-mode stream cipher — the throughput-path substitute.

The paper streams gigabytes through OpenSSL AES-NI; a pure-Python AES does a
few hundred kilobytes per second, which would make the Experiment B benches
measure interpreter overhead rather than system behaviour. This cipher keeps
the *structure* of AES-CTR (keyed deterministic keystream XORed over the
data) but generates the keystream with CPython's C-implemented SHA-256, so a
single client sustains tens of MB/s and the B.* benchmarks exercise realistic
data volumes. See DESIGN.md §4 for the substitution entry.

Security note: SHA-256(key || nonce || counter) as a keystream is a standard
PRF-counter construction; it is deterministic under (key, nonce) exactly like
the AES-CTR configuration TEDStore uses, so deduplication behaviour — the
property the experiments actually depend on — is identical.
"""

from __future__ import annotations

import hashlib

import numpy as np

_DIGEST_SIZE = 32

#: Big-endian counter encodings shared by every keystream call. Grown on
#: demand and capped so a pathological length request cannot pin memory;
#: 2^16 entries cover 2 MiB of keystream, far above the 16 KiB max chunk.
_COUNTER_CACHE: list = []
_COUNTER_CACHE_MAX = 1 << 16


def _counter_bytes(nblocks: int) -> list:
    """The first ``nblocks`` 8-byte counter encodings (cached prefix)."""
    cached = len(_COUNTER_CACHE)
    if nblocks > cached:
        grow_to = min(nblocks, _COUNTER_CACHE_MAX)
        _COUNTER_CACHE.extend(
            c.to_bytes(8, "big") for c in range(cached, grow_to)
        )
    if nblocks <= len(_COUNTER_CACHE):
        return _COUNTER_CACHE[:nblocks]
    return _COUNTER_CACHE + [
        c.to_bytes(8, "big")
        for c in range(len(_COUNTER_CACHE), nblocks)
    ]


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` pseudo-random bytes from (key, nonce).

    Block ``i`` is SHA-256(key || nonce || i as 8 big-endian bytes).
    The (key || nonce) prefix is hashed once and the resulting midstate
    cloned per counter block (``hash.copy()``), so each 32-byte block
    costs one 8-byte update + finalize instead of re-hashing the whole
    prefix.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    nblocks = (length + _DIGEST_SIZE - 1) // _DIGEST_SIZE
    copy = hashlib.sha256(key + nonce).copy
    blocks = []
    append = blocks.append
    for counter in _counter_bytes(nblocks):
        h = copy()
        h.update(counter)
        append(h.digest())
    return b"".join(blocks)[:length]


def encrypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the (key, nonce) keystream."""
    stream = keystream(key, nonce, len(data))
    return (
        np.frombuffer(data, dtype=np.uint8)
        ^ np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


def decrypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Inverse of :func:`encrypt` (the cipher is an involution)."""
    return encrypt(key, nonce, data)
