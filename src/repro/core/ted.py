"""The TED key manager: sketch-backed, tunable key-seed generation.

This is the paper's core contribution assembled from its three techniques:
sketch-based frequency counting (§3.3), probabilistic key generation (§3.4),
and automated parameter configuration (§3.5). One class serves both paper
variants:

* **BTED** — construct with a fixed balance parameter ``t``.
* **FTED** — construct with a storage blowup factor ``b``; ``t`` is then
  derived from plaintext frequencies, either once per snapshot from exact
  frequencies (the evaluation's "Nil" batching mode) or on-line per batch of
  key-generation requests (``batch_size`` set), starting from ``t = 1``.

The key manager never sees fingerprints — only the ``r`` short hashes each
client sends per chunk. Frequencies are estimated by updating the Count-Min
Sketch with those hashes; the FTED tuner additionally tracks the estimated
frequency per distinct short-hash tuple so it can rebuild the frequency
vector that the Eq. 6 optimization needs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import tuning
from repro.core.keygen import KeySeedGenerator
from repro.obs import metrics as obs_metrics
from repro.sketch.countmin import CountMinSketch

DEFAULT_SKETCH_ROWS = 4
DEFAULT_SKETCH_WIDTH = 2**20

_REGISTRY = obs_metrics.get_registry()
_TUNE_SECONDS = _REGISTRY.histogram(
    "ted_keymanager_tune_seconds", "Latency of one Eq. 6 tuning solve"
)
_PREDICTED_KLD = _REGISTRY.gauge(
    "ted_keymanager_kld",
    "KL divergence predicted by the last tuning solution",
)


@dataclass
class KeyManagerStats:
    """Counters exposed for the evaluation harness."""

    requests: int = 0
    batches_tuned: int = 0
    t_history: List[int] = field(default_factory=list)


class TedKeyManager:
    """Serves key seeds for chunks identified by short hashes.

    Exactly one of ``t`` (BTED) or ``blowup_factor`` (FTED) must be given.

    Args:
        secret: the global secret ``kappa``.
        t: fixed balance parameter (BTED mode).
        blowup_factor: storage blowup factor ``b`` (FTED mode).
        batch_size: FTED only — retune ``t`` after this many requests
            (paper default 48,000); ``None`` means the caller tunes
            explicitly via :meth:`tune_from_frequencies` (the "Nil" mode).
        sketch_rows / sketch_width: CM-Sketch geometry (paper defaults
            r=4, w=2^20..2^25 depending on experiment).
        probabilistic: Eq. 3 seed selection on (True) or the deterministic
            ``k = k_x`` arm of Experiment A.3 (False).
        conservative_sketch: use the conservative-update sketch (ablation).
        rng: injectable randomness for reproducible runs.
        algorithm: hash profile ("sha256" secure / "md5" fast).

    Example:
        >>> km = TedKeyManager(secret=b"kappa", t=5)
        >>> seed = km.generate_seed([1, 2, 3, 4])
        >>> isinstance(seed, bytes)
        True
    """

    def __init__(
        self,
        secret: bytes,
        t: Optional[int] = None,
        blowup_factor: Optional[float] = None,
        batch_size: Optional[int] = None,
        sketch_rows: int = DEFAULT_SKETCH_ROWS,
        sketch_width: int = DEFAULT_SKETCH_WIDTH,
        probabilistic: bool = True,
        conservative_sketch: bool = False,
        rng: Optional[random.Random] = None,
        algorithm: str = "sha256",
    ) -> None:
        if (t is None) == (blowup_factor is None):
            raise ValueError(
                "configure exactly one of t (BTED) or blowup_factor (FTED)"
            )
        if t is not None and t < 1:
            raise ValueError("t must be >= 1")
        if blowup_factor is not None and blowup_factor < 1.0:
            raise ValueError("blowup_factor must be >= 1")
        if batch_size is not None:
            if blowup_factor is None:
                raise ValueError("batch_size only applies to FTED")
            if batch_size <= 0:
                raise ValueError("batch_size must be positive")

        self.secret = secret
        self.blowup_factor = blowup_factor
        self.batch_size = batch_size
        self.sketch = CountMinSketch(
            rows=sketch_rows,
            width=sketch_width,
            conservative=conservative_sketch,
        )
        self._seeder = KeySeedGenerator(
            secret=secret,
            probabilistic=probabilistic,
            rng=rng,
            algorithm=algorithm,
        )
        # FTED starts at t = 1 and raises it as evidence accumulates (§3.5).
        self.t = t if t is not None else 1
        self.stats = KeyManagerStats()
        self._requests_in_batch = 0
        # Estimated frequency per distinct short-hash tuple, maintained only
        # in FTED mode; this is the frequency vector fed to the optimizer.
        self._freq_by_identity: Dict[Tuple[int, ...], int] = {}

    @property
    def is_fted(self) -> bool:
        """True when ``t`` is auto-configured from a blowup factor."""
        return self.blowup_factor is not None

    # -- key generation --------------------------------------------------

    def generate_seed(self, short_hashes: Sequence[int]) -> bytes:
        """Handle one key-generation request.

        Updates the sketch with the chunk's short hashes, estimates its
        current frequency, and returns the selected key seed. In batched
        FTED mode, also retunes ``t`` at batch boundaries.
        """
        frequency = self.sketch.update(short_hashes)
        if self.is_fted:
            self._freq_by_identity[tuple(short_hashes)] = frequency
        seed = self._seeder.select_seed(short_hashes, frequency, self.t)
        self.stats.requests += 1
        if self.batch_size is not None:
            self._requests_in_batch += 1
            if self._requests_in_batch >= self.batch_size:
                self._retune_from_tracked()
                self._requests_in_batch = 0
        return seed

    def _apply_batch(
        self,
        batch: Sequence[Sequence[int]],
        frequencies: Sequence[int],
        select: bool,
    ) -> List[bytes]:
        """The batched rule (§3.5): :meth:`generate_seed` per request.

        For each request in order: FTED tracking, Eq. 3 selection under
        the current ``t`` (when ``select``), request counting, and the
        batch-boundary retune — so requests after a boundary in the same
        call see the new ``t``, bit-for-bit as the scalar path. The
        sketch is not touched here: ``frequencies`` are the caller's
        sequential estimates (:meth:`CountMinSketch.update_batch`).
        """
        seeds: List[bytes] = []
        pick = self._seeder.select_seed
        tracked = self._freq_by_identity if self.is_fted else None
        for hashes, frequency in zip(batch, frequencies):
            if tracked is not None:
                tracked[tuple(hashes)] = frequency
            if select:
                seeds.append(pick(hashes, frequency, self.t))
            if self.batch_size is not None:
                self._requests_in_batch += 1
                if self._requests_in_batch >= self.batch_size:
                    self._retune_from_tracked()
                    self._requests_in_batch = 0
        self.stats.requests += len(batch)
        return seeds

    def generate_seeds(
        self, batch: Sequence[Sequence[int]]
    ) -> List[bytes]:
        """Handle a batch of requests (one TEDStore round trip).

        One :meth:`CountMinSketch.update_batch` pass counts the whole
        batch, then :meth:`select_seeds` applies the per-request rule.
        """
        return self.select_seeds(batch, self.sketch.update_batch(batch))

    def select_seeds(
        self, batch: Sequence[Sequence[int]], frequencies: Sequence[int]
    ) -> List[bytes]:
        """Select seeds for ``batch`` from frequencies counted elsewhere.

        The sharded front's entry (DESIGN.md §15): its observers count,
        and this key manager tracks, selects, counts and retunes.
        """
        return self._apply_batch(batch, frequencies, select=True)

    def observe_batch(self, batch: Sequence[Sequence[int]]) -> List[int]:
        """Apply a batch's frequency effects without selecting seeds.

        The crash-recovery replay path (km_state) and, as
        :meth:`estimate_batch`, the observer-shard path (DESIGN.md §15):
        the state mutations of :meth:`generate_seeds` minus seed draws
        (which touch only the selection RNG). Observers are built with
        ``batch_size=None``, so they never retune. Returns the per-request frequency estimates.
        """
        estimates = self.sketch.update_batch(batch)
        self._apply_batch(batch, estimates, select=False)
        return estimates

    estimate_batch = observe_batch

    # -- tuning ------------------------------------------------------------

    def tune_from_frequencies(self, frequencies: Sequence[int]) -> int:
        """FTED "Nil" mode: set ``t`` from an explicit frequency vector.

        The evaluation derives ``t`` from the exact frequencies of all
        plaintext chunks in a snapshot before encrypting it (§5.2).

        Returns:
            The new ``t``.

        Raises:
            RuntimeError: in BTED mode, where ``t`` is fixed by contract.
        """
        if not self.is_fted:
            raise RuntimeError("BTED uses a fixed t; tuning is disabled")
        start = time.perf_counter()
        solution = tuning.solve(frequencies, self.blowup_factor)
        self.t = solution.t
        self.stats.batches_tuned += 1
        self.stats.t_history.append(solution.t)
        _TUNE_SECONDS.observe(time.perf_counter() - start)
        _PREDICTED_KLD.set(solution.predicted_kld)
        return solution.t

    def _retune_from_tracked(self) -> None:
        frequencies = list(self._freq_by_identity.values())
        if frequencies:
            self.tune_from_frequencies(frequencies)
        # Each tuning round consumes its batch's frequency vector: the map
        # is cleared so it stays bounded by the batch's distinct-chunk
        # count instead of growing with the whole stream, and stale
        # entries from old batches cannot skew later solves. Cumulative
        # frequency history still informs tuning through the sketch,
        # which keeps counting across batches.
        self._freq_by_identity.clear()

    def tune_from_stream(
        self, hash_vectors: Sequence[Sequence[int]]
    ) -> int:
        """FTED "Nil" mode: tune ``t`` from a full counting pass.

        Feeds every chunk's short hashes through the sketch, solves the
        optimization on the resulting *estimated* frequency vector, and
        resets the sketch so the subsequent encryption pass counts from
        zero. This is how the key manager tunes in practice — it never
        sees exact frequencies, only sketch estimates, which is exactly
        the over-estimation effect Experiment A.2 measures (smaller ``w``
        → inflated estimates → larger ``t``).

        Returns:
            The new ``t``.
        """
        if not self.is_fted:
            raise RuntimeError("BTED uses a fixed t; tuning is disabled")
        estimates: Dict[Tuple[int, ...], int] = {}
        for hashes in hash_vectors:
            estimates[tuple(hashes)] = self.sketch.update(hashes)
        self.sketch.reset()
        if not estimates:
            return self.t
        return self.tune_from_frequencies(list(estimates.values()))

    # -- lifecycle ---------------------------------------------------------

    def clone(self, rng: Optional[random.Random] = None) -> "TedKeyManager":
        """Copy this key manager's full frequency state.

        Used by analyses that need two *independent* encryption runs
        starting from identical accumulated state (Experiment A.3's
        cross-run difference rates under a long-lived key manager). The
        clone gets its own RNG so the probabilistic selections diverge.
        """
        twin = TedKeyManager(
            secret=self.secret,
            t=None if self.is_fted else self.t,
            blowup_factor=self.blowup_factor,
            batch_size=self.batch_size,
            sketch_rows=self.sketch.rows,
            sketch_width=self.sketch.width,
            probabilistic=self._seeder.probabilistic,
            conservative_sketch=self.sketch.conservative,
            rng=rng,
            algorithm=self._seeder.algorithm,
        )
        twin.t = self.t
        twin.sketch._counters = self.sketch._counters.copy()
        twin.sketch.total = self.sketch.total
        twin._freq_by_identity = dict(self._freq_by_identity)
        twin._requests_in_batch = self._requests_in_batch
        return twin

    def reset(self) -> None:
        """Clear all frequency state (a new deduplication domain).

        The evaluation deduplicates each snapshot independently, so the
        trade-off drivers reset the key manager between snapshots. ``t``
        returns to 1 in FTED mode.
        """
        self.sketch.reset()
        self._freq_by_identity.clear()
        self._requests_in_batch = 0
        if self.is_fted:
            self.t = 1
