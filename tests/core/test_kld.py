"""KLD (Eq. 5) and attack-success (Eq. 9) metrics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.kld import (
    attack_success_probability,
    kld_from_frequencies,
    kld_from_observations,
    samples_for_success,
    storage_blowup,
)


class TestKld:
    def test_uniform_distribution_is_zero(self):
        assert kld_from_frequencies([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_single_chunk_is_zero(self):
        assert kld_from_frequencies([17]) == pytest.approx(0.0)

    def test_known_value_two_point(self):
        # p = (0.75, 0.25): KLD = 0.75 ln 1.5 + 0.25 ln 0.5.
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kld_from_frequencies([3, 1]) == pytest.approx(expected)

    def test_skew_increases_kld(self):
        mild = kld_from_frequencies([4, 3, 3, 2])
        heavy = kld_from_frequencies([9, 1, 1, 1])
        assert heavy > mild

    def test_scale_invariance(self):
        assert kld_from_frequencies([2, 4, 6]) == pytest.approx(
            kld_from_frequencies([20, 40, 60])
        )

    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=100))
    def test_non_negative(self, freqs):
        assert kld_from_frequencies(freqs) >= -1e-12

    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=100))
    def test_bounded_by_log_n(self, freqs):
        assert kld_from_frequencies(freqs) <= math.log(len(freqs)) + 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kld_from_frequencies([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kld_from_frequencies([1, 0])

    def test_from_observations(self):
        obs = [b"a", b"a", b"a", b"b"]
        assert kld_from_observations(obs) == pytest.approx(
            kld_from_frequencies([3, 1])
        )

    def test_from_observations_empty(self):
        with pytest.raises(ValueError):
            kld_from_observations([])


class TestAttackSuccess:
    def test_zero_kld_is_coin_flip(self):
        assert attack_success_probability(10_000, 0.0) == pytest.approx(0.5)

    def test_zero_samples_is_coin_flip(self):
        assert attack_success_probability(0, 1.5) == pytest.approx(0.5)

    def test_monotone_in_samples(self):
        low = attack_success_probability(100, 0.5)
        high = attack_success_probability(10_000, 0.5)
        assert 0.5 < low < high <= 1.0

    def test_monotone_in_kld(self):
        low = attack_success_probability(1000, 0.1)
        high = attack_success_probability(1000, 2.0)
        assert low < high

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            attack_success_probability(-1, 0.5)
        with pytest.raises(ValueError):
            attack_success_probability(1, -0.5)

    def test_samples_for_success_inverse(self):
        kld = 0.26
        samples = samples_for_success(0.9, kld)
        assert attack_success_probability(samples, kld) == pytest.approx(
            0.9, abs=1e-6
        )

    def test_sample_ratio_matches_kld_ratio(self):
        # The §3.6 argument: samples scale as 1/KLD for fixed success.
        ratio = samples_for_success(0.9, 0.26) / samples_for_success(0.9, 1.72)
        assert ratio == pytest.approx(1.72 / 0.26)

    def test_samples_for_success_validation(self):
        with pytest.raises(ValueError):
            samples_for_success(0.4, 1.0)
        with pytest.raises(ValueError):
            samples_for_success(0.9, 0.0)

    def test_agrees_with_scipy_norm(self):
        """Eq. 9 runs on ``statistics.NormalDist``; SciPy (a dev-only
        dependency) is the oracle, tails included."""
        norm = pytest.importorskip("scipy.stats").norm
        for samples in (0, 1, 10, 10**3, 10**6, 10**9, 10**12):
            for kld in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.26, 1.72, 5.0, 50.0):
                expected = 1.0 - norm.cdf(
                    -math.sqrt(2.0 * samples * kld) / 2.0
                )
                assert attack_success_probability(
                    samples, kld
                ) == pytest.approx(float(expected), abs=1e-12)
        for target in (0.5 + 1e-12, 0.500001, 0.51, 0.75, 0.9, 0.99,
                       1 - 1e-6, 1 - 1e-12, 1 - 1e-15):
            for kld in (1e-6, 0.26, 1.72):
                z = float(norm.ppf(1.0 - target))
                assert samples_for_success(target, kld) == pytest.approx(
                    (2.0 * z) ** 2 / (2.0 * kld), rel=1e-12
                )


class TestStorageBlowup:
    def test_exact_dedup(self):
        assert storage_blowup(100, 100) == 1.0

    def test_blowup(self):
        assert storage_blowup(120, 100) == pytest.approx(1.2)

    def test_rejects_shrinkage(self):
        with pytest.raises(ValueError):
            storage_blowup(99, 100)

    def test_rejects_zero_plaintext(self):
        with pytest.raises(ValueError):
            storage_blowup(0, 0)
