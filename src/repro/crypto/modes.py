"""Block-cipher modes of operation (CTR and CBC with PKCS#7 padding).

Encrypted deduplication needs *deterministic* encryption: the same
(key, plaintext) pair must produce the same ciphertext, or duplicate chunks
encrypted under the same MLE key would not deduplicate. TEDStore achieves
this the same way convergent-encryption systems do — by deriving the IV
deterministically from the key (see :mod:`repro.crypto.cipher`). The modes
here take an explicit IV/nonce and leave that policy to the caller.
"""

from __future__ import annotations

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.utils.bytesutil import xor_bytes


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Apply PKCS#7 padding up to ``block_size``."""
    if not 1 <= block_size <= 255:
        raise ValueError("block size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding.

    Raises:
        ValueError: if the padding is malformed (corrupt ciphertext or a
            wrong decryption key).
    """
    if not data or len(data) % block_size:
        raise ValueError("invalid padded length")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise ValueError("invalid padding byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("inconsistent padding")
    return data[:-pad_len]


def ctr_keystream(cipher: AES, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes in big-endian counter mode.

    Materializes every counter block into one buffer and encrypts
    them in a single :meth:`AES.encrypt_blocks` call, so
    the key schedule and the T-table round function are amortized over
    the whole message instead of being re-entered per block.
    """
    if len(nonce) != BLOCK_SIZE:
        raise ValueError("CTR nonce must be one block")
    counter = int.from_bytes(nonce, "big")
    nblocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    buf = bytearray(nblocks * BLOCK_SIZE)
    wrap = 1 << 128
    for i in range(nblocks):
        buf[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE] = (
            (counter + i) % wrap
        ).to_bytes(BLOCK_SIZE, "big")
    return cipher.encrypt_blocks(bytes(buf))[:length]


def ctr_encrypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt (or decrypt — CTR is an involution) ``data`` under AES-CTR."""
    cipher = AES(key)
    stream = ctr_keystream(cipher, nonce, len(data))
    return xor_bytes(data, stream)


def ctr_decrypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Decrypt AES-CTR ciphertext (identical to encryption)."""
    return ctr_encrypt(key, nonce, data)


def cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Encrypt ``data`` under AES-CBC with PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("CBC IV must be one block")
    cipher = AES(key)
    padded = pkcs7_pad(data)
    out = bytearray()
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = bytes(
            a ^ b
            for a, b in zip(padded[offset : offset + BLOCK_SIZE], previous)
        )
        previous = cipher.encrypt_block(block)
        out.extend(previous)
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Decrypt AES-CBC ciphertext and strip PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("CBC IV must be one block")
    if len(data) % BLOCK_SIZE:
        raise ValueError("CBC ciphertext must be block-aligned")
    cipher = AES(key)
    out = bytearray()
    previous = iv
    for offset in range(0, len(data), BLOCK_SIZE):
        block = data[offset : offset + BLOCK_SIZE]
        plain = cipher.decrypt_block(block)
        out.extend(a ^ b for a, b in zip(plain, previous))
        previous = block
    return pkcs7_unpad(bytes(out))
