"""SHA-256 counter-mode stream cipher (the throughput-path substitute)."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto import shactr

_KEY = b"k" * 32
_NONCE = b"n" * 16


class TestKeystream:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 100])
    def test_length(self, n):
        assert len(shactr.keystream(_KEY, _NONCE, n)) == n

    def test_prefix_consistency(self):
        long = shactr.keystream(_KEY, _NONCE, 100)
        short = shactr.keystream(_KEY, _NONCE, 40)
        assert long[:40] == short

    def test_key_and_nonce_matter(self):
        base = shactr.keystream(_KEY, _NONCE, 32)
        assert shactr.keystream(b"x" * 32, _NONCE, 32) != base
        assert shactr.keystream(_KEY, b"m" * 16, 32) != base

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            shactr.keystream(_KEY, _NONCE, -1)


class TestEncrypt:
    @given(st.binary(max_size=300))
    def test_roundtrip(self, data):
        assert shactr.decrypt(
            _KEY, _NONCE, shactr.encrypt(_KEY, _NONCE, data)
        ) == data

    def test_involution(self):
        data = b"twice is identity"
        assert shactr.encrypt(_KEY, _NONCE, shactr.encrypt(_KEY, _NONCE, data)) == data

    def test_deterministic(self):
        assert shactr.encrypt(_KEY, _NONCE, b"d") == shactr.encrypt(
            _KEY, _NONCE, b"d"
        )

    def test_empty_input(self):
        assert shactr.encrypt(_KEY, _NONCE, b"") == b""

    def test_ciphertext_differs_from_plaintext(self):
        data = b"not the identity map" * 4
        assert shactr.encrypt(_KEY, _NONCE, data) != data


# Known-answer vectors. Stores written under the ``shactr`` profile stay
# readable only while these bytes never change, whatever the keystream
# or XOR implementation underneath. Plaintext byte i is (7·i + 3) mod 256.
_KAT_KEY = bytes(range(32))
_KAT_NONCE = bytes(range(100, 116))

_KAT_SHORT = {
    0: "",
    1: "5e",
    31: "5e367eb1db279e8652af1e12fdbc3838a5adb46ab2746ee8c1dee52094bce2",
    32: "5e367eb1db279e8652af1e12fdbc3838a5adb46ab2746ee8c1dee52094bce201",
    33: "5e367eb1db279e8652af1e12fdbc3838a5adb46ab2746ee8c1dee52094bce20112",
}

# Long vectors: literal head, middle and tail 32-byte windows plus the
# SHA-256 of the whole ciphertext (pins every byte without 40 KB of hex).
_KAT_LONG = {
    4096: (
        "5e367eb1db279e8652af1e12fdbc3838a5adb46ab2746ee8c1dee52094bce201",
        "a3822e4a1be5aca10c7fe9d53ca2451a84bf63b4d8e0857a0bf868d08cce5e85",
        "18b9539894e164babf493f543449be18726bc0bd33691a518f945eec3fd3551b",
        "9de3205f319f3b21933d390449d47aefc361e38a7d2f2f93ea4e593eec7595d1",
    ),
    16384: (
        "5e367eb1db279e8652af1e12fdbc3838a5adb46ab2746ee8c1dee52094bce201",
        "f72f24fed74d21574813cb2c658df8fb723b2a9d0ca18f0f10e058bcffa96a05",
        "5068cca77151bcd0feda57a92021181c0f969f72167791acbf6de5b9ef7094a5",
        "03ca8a4c8df23410d6798e4744ebbd71788a25828e370a43d5e1a29980ac8c99",
    ),
}


def _kat_plaintext(n):
    return bytes((7 * i + 3) & 0xFF for i in range(n))


class TestKnownAnswers:
    @pytest.mark.parametrize("n", sorted(_KAT_SHORT))
    def test_short(self, n):
        plain = _kat_plaintext(n)
        cipher = shactr.encrypt(_KAT_KEY, _KAT_NONCE, plain)
        assert cipher.hex() == _KAT_SHORT[n]
        assert shactr.decrypt(_KAT_KEY, _KAT_NONCE, cipher) == plain

    @pytest.mark.parametrize("n", sorted(_KAT_LONG))
    def test_long(self, n):
        head, middle, tail, digest = _KAT_LONG[n]
        plain = _kat_plaintext(n)
        cipher = shactr.encrypt(_KAT_KEY, _KAT_NONCE, plain)
        assert len(cipher) == n
        assert cipher[:32].hex() == head
        assert cipher[n // 2 - 16 : n // 2 + 16].hex() == middle
        assert cipher[-32:].hex() == tail
        assert hashlib.sha256(cipher).hexdigest() == digest
        assert shactr.decrypt(_KAT_KEY, _KAT_NONCE, cipher) == plain
