"""Information-leakage metrics: KLD (Eq. 5) and attack success (Eq. 9).

The paper quantifies frequency leakage as the Kullback–Leibler distance of
the ciphertext-chunk frequency distribution from the uniform distribution::

    KLD = sum_i p*_i log(p*_i / (1/n*)) = log n* + sum_i p*_i log p*_i

where ``p*_i`` is the empirical probability of ciphertext chunk ``i`` among
``n*`` unique ciphertext chunks. KLD = 0 means the ciphertext frequencies
are perfectly uniform (SKE); larger values mean more exploitable skew.
Natural logarithms throughout (KLD in nats), matching the magnitudes the
paper reports (e.g. 1.72 for MLE on FSL).
"""

from __future__ import annotations

import math
from collections import Counter
from statistics import NormalDist
from typing import Iterable, Sequence

_STANDARD_NORMAL = NormalDist()


def kld_from_frequencies(frequencies: Sequence[int]) -> float:
    """KLD (w.r.t. uniform) of a frequency vector of unique-chunk counts.

    Args:
        frequencies: one positive count per unique ciphertext chunk.

    Raises:
        ValueError: on empty input or non-positive counts.
    """
    freqs = list(frequencies)
    if not freqs:
        raise ValueError("frequency vector must be non-empty")
    total = 0
    for f in freqs:
        if f <= 0:
            raise ValueError("frequencies must be positive")
        total += f
    n_star = len(freqs)
    # KLD = log n* + sum p log p, computed stably in count space:
    # sum p log p = (sum f log f)/S - log S.
    sum_f_log_f = sum(f * math.log(f) for f in freqs)
    return math.log(n_star) + sum_f_log_f / total - math.log(total)


def kld_from_observations(observations: Iterable[bytes]) -> float:
    """KLD of an observed stream of ciphertext-chunk identities."""
    counts = Counter(observations)
    if not counts:
        raise ValueError("observation stream must be non-empty")
    return kld_from_frequencies(list(counts.values()))


def attack_success_probability(num_samples: int, kld: float) -> float:
    """Distinguishing-attack success probability (Eq. 9).

    Approximates the probability that an adversary with ``num_samples``
    sampled ciphertext chunks correctly distinguishes the scheme's frequency
    distribution from uniform: ``P ≈ 1 - Φ(-sqrt(2 S KLD) / 2)``. With
    KLD = 0 this is 0.5 — no advantage over a random guess.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be non-negative")
    if kld < 0:
        raise ValueError("KLD cannot be negative")
    return 1.0 - _STANDARD_NORMAL.cdf(
        -math.sqrt(2.0 * num_samples * kld) / 2.0
    )


def samples_for_success(target_probability: float, kld: float) -> float:
    """Samples needed to reach a target success probability (inverse of Eq. 9).

    Used for the §3.6 argument: the ratio of required samples between two
    schemes equals the inverse ratio of their KLDs.

    Raises:
        ValueError: if the target is not in (0.5, 1) or KLD is not positive.
    """
    if not 0.5 < target_probability < 1.0:
        raise ValueError("target probability must be in (0.5, 1)")
    if kld <= 0:
        raise ValueError("KLD must be positive for a finite sample count")
    z = _STANDARD_NORMAL.inv_cdf(1.0 - target_probability)
    return (2.0 * z) ** 2 / (2.0 * kld)


def storage_blowup(
    unique_ciphertext_chunks: int, unique_plaintext_chunks: int
) -> float:
    """Actual storage blowup over exact deduplication (chunk-count form)."""
    if unique_plaintext_chunks <= 0:
        raise ValueError("need at least one unique plaintext chunk")
    if unique_ciphertext_chunks < unique_plaintext_chunks:
        raise ValueError(
            "ciphertext uniques cannot be fewer than plaintext uniques"
        )
    return unique_ciphertext_chunks / unique_plaintext_chunks
