"""Key derivation (Eqs. 1-4)."""

import random

import pytest

from repro.core.keygen import (
    KeySeedGenerator,
    basic_key,
    derive_key,
    frequency_bucket,
)
from repro.crypto.hashes import hash_concat

_HASHES = [17, 42, 99, 7]


class TestFrequencyBucket:
    @pytest.mark.parametrize(
        "f,t,expected", [(0, 5, 0), (4, 5, 0), (5, 5, 1), (14, 5, 2), (7, 1, 7)]
    )
    def test_floor_division(self, f, t, expected):
        assert frequency_bucket(f, t) == expected

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            frequency_bucket(1, 0)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            frequency_bucket(-1, 5)


class TestBasicKey:
    def test_deterministic(self):
        assert basic_key(b"s", b"fp", 7, 5) == basic_key(b"s", b"fp", 7, 5)

    def test_same_bucket_same_key(self):
        # f = 5 and f = 9 both land in bucket 1 with t = 5 (Eq. 1).
        assert basic_key(b"s", b"fp", 5, 5) == basic_key(b"s", b"fp", 9, 5)

    def test_bucket_boundary_changes_key(self):
        assert basic_key(b"s", b"fp", 4, 5) != basic_key(b"s", b"fp", 5, 5)

    def test_secret_matters(self):
        assert basic_key(b"s1", b"fp", 1, 5) != basic_key(b"s2", b"fp", 1, 5)

    def test_fingerprint_matters(self):
        assert basic_key(b"s", b"fp1", 1, 5) != basic_key(b"s", b"fp2", 1, 5)

    def test_md5_profile_length(self):
        assert len(basic_key(b"s", b"fp", 1, 5, algorithm="md5")) == 16


class TestKeySeedGenerator:
    def test_candidate_deterministic(self):
        gen = KeySeedGenerator(secret=b"kappa")
        assert gen.candidate(_HASHES, 3) == gen.candidate(_HASHES, 3)

    def test_candidate_index_matters(self):
        gen = KeySeedGenerator(secret=b"kappa")
        assert gen.candidate(_HASHES, 0) != gen.candidate(_HASHES, 1)

    def test_candidate_hashes_matter(self):
        gen = KeySeedGenerator(secret=b"kappa")
        assert gen.candidate([1, 2, 3, 4], 0) != gen.candidate([1, 2, 3, 5], 0)

    def test_candidate_rejects_negative_index(self):
        with pytest.raises(ValueError):
            KeySeedGenerator(secret=b"k").candidate(_HASHES, -1)

    def test_rejects_empty_secret(self):
        with pytest.raises(ValueError):
            KeySeedGenerator(secret=b"")

    def test_deterministic_mode_returns_k_x(self):
        gen = KeySeedGenerator(secret=b"kappa", probabilistic=False)
        seed = gen.select_seed(_HASHES, frequency=12, t=5)  # x = 2
        assert seed == gen.candidate(_HASHES, 2)

    def test_probabilistic_seed_in_candidate_set(self):
        gen = KeySeedGenerator(
            secret=b"kappa", probabilistic=True, rng=random.Random(0)
        )
        candidates = {gen.candidate(_HASHES, i) for i in range(4)}
        for _ in range(100):
            assert gen.select_seed(_HASHES, frequency=15, t=5) in candidates

    def test_probabilistic_uses_whole_candidate_set(self):
        gen = KeySeedGenerator(
            secret=b"kappa", probabilistic=True, rng=random.Random(0)
        )
        seen = {
            gen.select_seed(_HASHES, frequency=15, t=5) for _ in range(300)
        }
        assert len(seen) == 4  # x = 3 → candidates {k0..k3}

    def test_zero_bucket_always_k0(self):
        gen = KeySeedGenerator(
            secret=b"kappa", probabilistic=True, rng=random.Random(0)
        )
        k0 = gen.candidate(_HASHES, 0)
        for _ in range(20):
            assert gen.select_seed(_HASHES, frequency=3, t=5) == k0

    def test_reproducible_with_seeded_rng(self):
        a = KeySeedGenerator(secret=b"k", rng=random.Random(9))
        b = KeySeedGenerator(secret=b"k", rng=random.Random(9))
        seq_a = [a.select_seed(_HASHES, 50, 5) for _ in range(20)]
        seq_b = [b.select_seed(_HASHES, 50, 5) for _ in range(20)]
        assert seq_a == seq_b


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key(b"seed", b"fp") == derive_key(b"seed", b"fp")

    def test_binds_fingerprint(self):
        assert derive_key(b"seed", b"fp1") != derive_key(b"seed", b"fp2")

    def test_binds_seed(self):
        assert derive_key(b"seed1", b"fp") != derive_key(b"seed2", b"fp")

    def test_key_is_not_the_seed(self):
        # The key manager sees the seed but must not know the key (Eq. 4).
        assert derive_key(b"seed", b"fp") != b"seed"

    def test_rejects_empty_seed(self):
        with pytest.raises(ValueError):
            derive_key(b"", b"fp")

    def test_md5_length(self):
        assert len(derive_key(b"s", b"fp", algorithm="md5")) == 16


class TestGoldenBytes:
    """Seeds and keys keep the bytes ``hash_concat`` gave them before
    the one-buffer encoders: every stored ciphertext depends on them."""

    _CANDIDATES = {
        "sha256": [
            "6b32cfaf2bb875090dd855532ea0a6dda30e51885360d1bf20496f5ce55d0ed9",
            "809ebaf581949d04c6282e2925b1af6f1b3f286a73c4ed9cf2ac60c9bcc0719d",
            "a8cc388de6c6160c686a8e621be0157239faa35cdf940367e4d411ae49b9c41a",
        ],
        "md5": [
            "6c842bd6b1e50ed41488670196de136b",
            "57e7d2dbe5854b41cd8187553a8e6ced",
            "83ea1ec4886f6b9092a2abcb6fc163cd",
        ],
    }
    _ZERO_CANDIDATE = {
        "sha256": "4bda870fc0946aaf4bf4bb39ab38c2da1df055056b60d6f2bd0a42e1b3079f6e",
        "md5": "c47868e32bd33e90a282b3a36f1b7484",
    }
    _KEYS = {
        "sha256": "2bcb9d00aaf494dc75be45f1fdb1fd94e468e156dfccd86858ff937512dba973",
        "md5": "65827e74f2a35e2708a7573c7984c4b7",
    }

    @pytest.mark.parametrize("algorithm", ["sha256", "md5"])
    def test_candidates(self, algorithm):
        gen = KeySeedGenerator(secret=b"kappa-secret", algorithm=algorithm)
        hashes = [1, 255, 256, 2**21 - 1]
        assert [
            gen.candidate(hashes, x).hex() for x in (0, 1, 300)
        ] == self._CANDIDATES[algorithm]
        assert (
            gen.candidate([0, 0, 0, 0], 0).hex()
            == self._ZERO_CANDIDATE[algorithm]
        )

    @pytest.mark.parametrize("algorithm", ["sha256", "md5"])
    def test_derive_key(self, algorithm):
        key = derive_key(b"\x07" * 32, bytes(range(32)), algorithm)
        assert key.hex() == self._KEYS[algorithm]

    def test_candidate_is_hash_concat(self):
        rng = random.Random(4)
        gen = KeySeedGenerator(secret=b"\x00" * 3 + b"k")
        for _ in range(200):
            hashes = [
                rng.randrange(2 ** rng.randrange(1, 80)) for _ in range(4)
            ]
            x = rng.randrange(2 ** rng.randrange(1, 70))
            assert gen.candidate(hashes, x) == hash_concat(
                [gen.secret, *hashes, x]
            )

    def test_candidate_rejects_a_negative_short_hash(self):
        with pytest.raises(ValueError):
            KeySeedGenerator(secret=b"k").candidate([1, -2, 3, 4], 0)
