"""Crypto substrate: every primitive TEDStore's C++ prototype imported from
OpenSSL/smhasher, rebuilt from scratch in Python.

Submodules:
    aes       — FIPS-197 AES-128/192/256 block cipher.
    modes     — CTR and CBC (PKCS#7) modes.
    shactr    — SHA-256 counter-mode stream cipher (throughput path).
    cipher    — deterministic chunk-cipher profiles (secure/fast/shactr).
    hashes    — fingerprints, H(.) concatenation, HMAC.
    murmur3   — MurmurHash3 x64-128 and the short-hash split.
    primes    — Miller–Rabin prime generation.
    rsa       — RSA keygen + Chaum blind signatures (DupLESS baseline).
    ec        — NIST P-256 group arithmetic + hash-to-curve.
    blindsig  — blind-RSA and blind-BLS key-generation protocols.
"""

from repro.crypto.cipher import FAST, SECURE, SHACTR, CipherProfile, get_profile
from repro.crypto.hashes import fingerprint, hash_concat, hmac_digest
from repro.crypto.murmur3 import murmur3_x64_128, short_hashes

__all__ = [
    "FAST",
    "SECURE",
    "SHACTR",
    "CipherProfile",
    "get_profile",
    "fingerprint",
    "hash_concat",
    "hmac_digest",
    "murmur3_x64_128",
    "short_hashes",
]
