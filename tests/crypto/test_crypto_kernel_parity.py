"""Batched crypto kernels must be byte-identical to their definitions.

The shipped data path (DESIGN.md §16) is batched — AES T-table
``encrypt_blocks``, the single-call CTR keystream, and the SHA-CTR
midstate keystream. These tests pin each to its definition, written out
the slow way here (per-block :meth:`AES.encrypt_block`, one SHA-256 per
counter), on random and adversarial inputs. Any divergence would
silently break deduplication (the same chunk would stop producing the
same ciphertext).
"""

import hashlib
import random

import pytest

from repro.crypto import shactr
from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.modes import ctr_encrypt, ctr_keystream


def _ref_ctr_keystream(key, nonce, length):
    """AES-CTR by definition: E_k(nonce + i mod 2^128), block by block."""
    cipher, counter, blocks = AES(key), int.from_bytes(nonce, "big"), []
    for _ in range(-(-length // BLOCK_SIZE)):
        blocks.append(cipher.encrypt_block(counter.to_bytes(16, "big")))
        counter = (counter + 1) % (1 << 128)
    return b"".join(blocks)[:length]


def _ref_shactr_keystream(key, nonce, length):
    """SHA-CTR by definition: SHA-256(key || nonce || i) per 32 bytes."""
    return b"".join(
        hashlib.sha256(key + nonce + i.to_bytes(8, "big")).digest()
        for i in range(-(-length // 32))
    )[:length]


def _xor(data, stream):
    return bytes(a ^ b for a, b in zip(data, stream))


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_encrypt_blocks_matches_per_block(key_size):
    rng = random.Random(key_size)
    cipher = AES(bytes(rng.randrange(256) for _ in range(key_size)))
    for nblocks in (0, 1, 2, 7, 64):
        data = bytes(rng.randrange(256) for _ in range(nblocks * BLOCK_SIZE))
        expected = b"".join(
            cipher.encrypt_block(data[i : i + BLOCK_SIZE])
            for i in range(0, len(data), BLOCK_SIZE)
        )
        assert cipher.encrypt_blocks(data) == expected


def test_encrypt_blocks_rejects_partial_blocks():
    cipher = AES(b"k" * 16)
    with pytest.raises(ValueError):
        cipher.encrypt_blocks(b"\x00" * 17)


@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 4096, 16384 + 5])
def test_ctr_parity(length):
    rng = random.Random(length)
    key = bytes(rng.randrange(256) for _ in range(32))
    nonce = bytes(rng.randrange(256) for _ in range(16))
    data = bytes(rng.randrange(256) for _ in range(length))
    ciphertext = ctr_encrypt(key, nonce, data)
    assert ciphertext == _xor(data, _ref_ctr_keystream(key, nonce, length))
    assert ctr_encrypt(key, nonce, ciphertext) == data  # involution


def test_ctr_counter_wraparound_parity():
    # A nonce close to 2^128 makes the counter wrap inside the message;
    # the batched buffer fill must wrap exactly like the per-block loop.
    key = b"\x42" * 16
    nonce = b"\xff" * 16
    data = bytes(range(160))
    assert ctr_encrypt(key, nonce, data) == _xor(
        data, _ref_ctr_keystream(key, nonce, len(data))
    )


def test_ctr_keystream_prefix_consistency():
    cipher = AES(b"\x01" * 16)
    nonce = bytes(16)
    long = ctr_keystream(cipher, nonce, 512)
    for length in (0, 1, 31, 32, 33, 511):
        assert ctr_keystream(cipher, nonce, length) == long[:length]


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096, 100_001])
def test_shactr_keystream_parity(length):
    key, nonce = b"k" * 32, b"n" * 16
    assert shactr.keystream(key, nonce, length) == _ref_shactr_keystream(
        key, nonce, length
    )


def test_shactr_encrypt_roundtrip_parity():
    rng = random.Random(5)
    key = bytes(rng.randrange(256) for _ in range(32))
    nonce = bytes(rng.randrange(256) for _ in range(16))
    for size in (0, 1, 63, 64, 65, 16384):
        data = bytes(rng.randrange(256) for _ in range(size))
        ciphertext = shactr.encrypt(key, nonce, data)
        assert ciphertext == _xor(
            data, _ref_shactr_keystream(key, nonce, size)
        )
        assert shactr.decrypt(key, nonce, ciphertext) == data


def test_shactr_counter_cache_overflow(monkeypatch):
    # Requests beyond the cache cap must fall back to computing the tail
    # without growing the cache past its bound.
    monkeypatch.setattr(shactr, "_COUNTER_CACHE", [])
    monkeypatch.setattr(shactr, "_COUNTER_CACHE_MAX", 8)
    counters = shactr._counter_bytes(12)
    assert counters == [c.to_bytes(8, "big") for c in range(12)]
    assert len(shactr._COUNTER_CACHE) == 8
    # A shorter follow-up request slices the cached prefix.
    assert shactr._counter_bytes(3) == [
        c.to_bytes(8, "big") for c in range(3)
    ]
