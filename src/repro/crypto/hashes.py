"""Hash and key-derivation helpers shared by all schemes.

The paper uses SHA-256 (secure profile) or MD5 (fast profile) for three
roles: chunk fingerprints, the key manager's seed derivation H(kappa || ... )
(Eq. 2), and the client's key derivation H(k || P) (Eq. 4). This module
centralizes those so every scheme derives keys the same way, and provides the
length-prefixed concatenation that keeps H(a || b) unambiguous.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Iterable, Union

HashInput = Union[bytes, bytearray, memoryview, int, str]

#: Digest sizes of the supported hash profiles.
DIGEST_SIZES = {"sha256": 32, "md5": 16, "sha1": 20}

# The direct hashlib constructors: one call hashes a whole buffer, where
# ``hashlib.new`` looks the name up on every call.
_CONSTRUCTORS = {
    "sha256": hashlib.sha256,
    "md5": hashlib.md5,
    "sha1": hashlib.sha1,
}


def hash_function(algorithm: str):
    """The hashlib constructor of a supported algorithm name."""
    try:
        return _CONSTRUCTORS[algorithm]
    except KeyError:
        raise ValueError(
            f"unsupported hash algorithm: {algorithm!r}"
        ) from None


def _to_bytes(value: HashInput) -> bytes:
    """Canonicalize a hash input component to bytes."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, int):
        if value < 0:
            raise ValueError("negative integers are not hashable inputs")
        length = max(1, (value.bit_length() + 7) // 8)
        return value.to_bytes(length, "big")
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeError(f"unsupported hash input type: {type(value)!r}")


def length_prefixed(raw: bytes) -> bytes:
    """One :func:`hash_concat` component: 4-byte big-endian length, then
    the bytes."""
    return len(raw).to_bytes(4, "big") + raw


def new_hash(algorithm: str):
    """Return a fresh hashlib object for a supported algorithm name."""
    return hash_function(algorithm)()


def digest(data: bytes, algorithm: str = "sha256") -> bytes:
    """Hash a single byte string."""
    return hash_function(algorithm)(data).digest()


def hash_concat(parts: Iterable[HashInput], algorithm: str = "sha256") -> bytes:
    """Compute H(p1 || p2 || ...) with length-prefixed components.

    Length prefixes prevent ambiguity between e.g. (b"ab", b"c") and
    (b"a", b"bc"), which matters because the key manager concatenates the
    global secret, short hashes, and the frequency bucket index (Eq. 2).
    The components are joined into one buffer and hashed in one call.
    """
    return hash_function(algorithm)(
        b"".join([length_prefixed(_to_bytes(part)) for part in parts])
    ).digest()


def hmac_digest(key: bytes, data: bytes, algorithm: str = "sha256") -> bytes:
    """HMAC used for recipe authentication in the storage substrate."""
    if algorithm not in DIGEST_SIZES:
        raise ValueError(f"unsupported hash algorithm: {algorithm!r}")
    return _hmac.new(key, data, algorithm).digest()


def fingerprint(chunk: bytes, algorithm: str = "sha256") -> bytes:
    """Compute a chunk fingerprint (the cryptographic hash of its content)."""
    return digest(chunk, algorithm)


def truncated_fingerprint(chunk: bytes, bits: int, algorithm: str = "sha256") -> bytes:
    """Fingerprint truncated to ``bits`` (FSL traces use 48-bit, MS 40-bit)."""
    if bits <= 0 or bits % 8:
        raise ValueError("bits must be a positive multiple of 8")
    full = digest(chunk, algorithm)
    if bits // 8 > len(full):
        raise ValueError("requested truncation longer than the digest")
    return full[: bits // 8]
