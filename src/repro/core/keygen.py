"""TED key derivation (paper §3.2 and §3.4, Eqs. 1–4).

Three pieces, kept separate because the paper evaluates them separately:

* :func:`basic_key` — the strawman Eq. 1, ``K = H(kappa || P || floor(f/t))``,
  which leaks identical-file structure (design question Q2).
* :class:`KeySeedGenerator` — the key manager's side: computes key-seed
  candidates ``k_x = H(kappa || h_1 || ... || h_r || x)`` (Eq. 2) and selects
  one, either probabilistically from ``{k_0..k_x}`` (Eq. 3) or
  deterministically as ``k_x`` (the Experiment A.3 comparison arm).
* :func:`derive_key` — the client's side, ``K = H(k || P)`` (Eq. 4), so that
  neither the key manager nor an eavesdropper on its replies ever sees the
  actual chunk key.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.crypto.hashes import hash_concat, hash_function, length_prefixed

# The 4-byte length prefixes of 1..8-byte integer components.
_SIZE_PREFIX = [size.to_bytes(4, "big") for size in range(9)]


def frequency_bucket(frequency: int, t: int) -> int:
    """Compute ``x = floor(f / t)`` — the key-seed generation index.

    Raises:
        ValueError: for non-positive ``t`` or negative frequency.
    """
    if t <= 0:
        raise ValueError("balance parameter t must be positive")
    if frequency < 0:
        raise ValueError("frequency cannot be negative")
    return frequency // t


def basic_key(
    secret: bytes,
    fingerprint: bytes,
    frequency: int,
    t: int,
    algorithm: str = "sha256",
) -> bytes:
    """Eq. 1: ``K = H(kappa || P || floor(f/t))`` (the non-probabilistic
    strawman; identical files yield identical ciphertext sequences)."""
    x = frequency_bucket(frequency, t)
    return hash_concat([secret, fingerprint, x], algorithm=algorithm)


class KeySeedGenerator:
    """Key-manager-side seed generation over short hashes.

    Args:
        secret: the key manager's global secret ``kappa``.
        probabilistic: select the seed uniformly from ``{k_0..k_x}`` (Eq. 3)
            when True; return ``k_x`` deterministically when False.
        rng: randomness source for the probabilistic selection (injectable
            for reproducible experiments).
        algorithm: hash algorithm for Eq. 2 ("sha256" or "md5" matching the
            paper's secure/fast profiles).
    """

    def __init__(
        self,
        secret: bytes,
        probabilistic: bool = True,
        rng: Optional[random.Random] = None,
        algorithm: str = "sha256",
    ) -> None:
        if not secret:
            raise ValueError("the global secret must be non-empty")
        self.secret = secret
        self.probabilistic = probabilistic
        self.algorithm = algorithm
        self._rng = rng or random.Random()
        self._hash = hash_function(algorithm)
        # The first hash_concat component never changes.
        self._secret_part = length_prefixed(bytes(secret))

    def candidate(self, short_hashes: Sequence[int], x: int) -> bytes:
        """Eq. 2: ``k_x = H(kappa || h_1 || ... || h_r || x)``.

        Byte for byte ``hash_concat([kappa, h_1, ..., h_r, x])``, built
        as one buffer around the precomputed secret component.
        """
        if x < 0:
            raise ValueError("candidate index cannot be negative")
        parts = [self._secret_part]
        append = parts.append
        for value in (*short_hashes, x):
            if value < 0:
                raise ValueError("negative integers are not hashable inputs")
            size = (value.bit_length() + 7) // 8 or 1
            append(_SIZE_PREFIX[size] if size < 9 else size.to_bytes(4, "big"))
            append(value.to_bytes(size, "big"))
        return self._hash(b"".join(parts)).digest()

    def select_seed(
        self, short_hashes: Sequence[int], frequency: int, t: int
    ) -> bytes:
        """Eqs. 2–3: compute ``x = floor(f/t)`` and pick a seed.

        Probabilistic mode draws the generation index uniformly from
        ``[0, x]`` — duplicates therefore spread over up to ``x + 1``
        ciphertexts while still frequently reusing old seeds, which is what
        preserves deduplication.
        """
        x = frequency_bucket(frequency, t)
        if self.probabilistic and x > 0:
            x = self._rng.randint(0, x)
        return self.candidate(short_hashes, x)


def derive_key(
    seed: bytes, fingerprint: bytes, algorithm: str = "sha256"
) -> bytes:
    """Eq. 4 (client side): ``K = H(k || P)``.

    Binding the seed to the fingerprint stops the key manager — which only
    ever sees short hashes — from computing chunk keys itself.
    """
    if not seed:
        raise ValueError("seed must be non-empty")
    return hash_function(algorithm)(
        length_prefixed(seed) + length_prefixed(fingerprint)
    ).digest()
