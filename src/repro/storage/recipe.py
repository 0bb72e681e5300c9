"""File recipes and key recipes (paper §2.2).

For every uploaded file the client produces:

* a **file recipe** — the ordered list of (chunk fingerprint, chunk size)
  needed to reassemble the file; and
* a **key recipe** — the ordered list of per-chunk encryption keys.

Both are encrypted under the client's *master key* before upload, because
the key recipe is literally the keys and the file recipe reveals the chunk
identities. Recipe encryption is randomized (fresh nonce per recipe, stored
alongside) — recipes are per-file metadata and are never deduplicated, so
determinism is not needed and would leak. An HMAC over the ciphertext makes
tampering detectable.
"""

from __future__ import annotations

import hmac
import os
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.crypto import shactr
from repro.crypto.hashes import hmac_digest
from repro.utils.varint import decode_uvarint, encode_uvarint

_MAGIC_FILE = b"FR01"
_MAGIC_KEY = b"KR01"
_NONCE_BYTES = 16
_MAC_BYTES = 32


@dataclass
class FileRecipe:
    """Ordered chunk metadata for one file."""

    file_name: str
    entries: List[Tuple[bytes, int]] = field(default_factory=list)

    def add(self, fingerprint: bytes, size: int) -> None:
        """Append one chunk's (fingerprint, size)."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        self.entries.append((fingerprint, size))

    @property
    def file_size(self) -> int:
        """Total plaintext size implied by the recipe."""
        return sum(size for _, size in self.entries)

    def serialize(self) -> bytes:
        """Plaintext serialization (encrypt with :func:`seal` before upload)."""
        name = self.file_name.encode("utf-8")
        out = bytearray(_MAGIC_FILE)
        out.extend(encode_uvarint(len(name)))
        out.extend(name)
        out.extend(encode_uvarint(len(self.entries)))
        for fingerprint, size in self.entries:
            out.extend(encode_uvarint(len(fingerprint)))
            out.extend(fingerprint)
            out.extend(encode_uvarint(size))
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "FileRecipe":
        """Inverse of :meth:`serialize`."""
        if data[:4] != _MAGIC_FILE:
            raise ValueError("not a file recipe")
        name_len, pos = decode_uvarint(data, 4)
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        count, pos = decode_uvarint(data, pos)
        recipe = cls(file_name=name)
        for _ in range(count):
            fp_len, pos = decode_uvarint(data, pos)
            fingerprint = data[pos : pos + fp_len]
            pos += fp_len
            size, pos = decode_uvarint(data, pos)
            recipe.entries.append((fingerprint, size))
        return recipe


@dataclass
class KeyRecipe:
    """Ordered per-chunk keys for one file."""

    keys: List[bytes] = field(default_factory=list)

    def add(self, key: bytes) -> None:
        """Append one chunk key."""
        if not key:
            raise ValueError("keys must be non-empty")
        self.keys.append(key)

    def serialize(self) -> bytes:
        """Plaintext serialization (encrypt with :func:`seal` before upload)."""
        out = bytearray(_MAGIC_KEY)
        out.extend(encode_uvarint(len(self.keys)))
        for key in self.keys:
            out.extend(encode_uvarint(len(key)))
            out.extend(key)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "KeyRecipe":
        """Inverse of :meth:`serialize`."""
        if data[:4] != _MAGIC_KEY:
            raise ValueError("not a key recipe")
        count, pos = decode_uvarint(data, 4)
        recipe = cls()
        for _ in range(count):
            key_len, pos = decode_uvarint(data, pos)
            recipe.keys.append(data[pos : pos + key_len])
            pos += key_len
        return recipe


def seal(master_key: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC a recipe under the client master key.

    Layout: ``nonce(16) || ciphertext || hmac(32)`` where the HMAC covers
    nonce and ciphertext.
    """
    nonce = os.urandom(_NONCE_BYTES)
    ciphertext = shactr.encrypt(master_key, nonce, plaintext)
    mac = hmac_digest(master_key, nonce + ciphertext)
    return nonce + ciphertext + mac


def unseal(master_key: bytes, sealed: bytes) -> bytes:
    """Verify and decrypt a sealed recipe.

    Raises:
        ValueError: wrong key or tampered data.
    """
    if len(sealed) < _NONCE_BYTES + _MAC_BYTES:
        raise ValueError("sealed recipe too short")
    nonce = sealed[:_NONCE_BYTES]
    ciphertext = sealed[_NONCE_BYTES:-_MAC_BYTES]
    mac = sealed[-_MAC_BYTES:]
    expected = hmac_digest(master_key, nonce + ciphertext)
    if not hmac.compare_digest(mac, expected):
        raise ValueError("recipe authentication failed")
    return shactr.decrypt(master_key, nonce, ciphertext)

