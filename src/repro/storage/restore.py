"""Restore-path fragmentation metrics.

Experiment B.5 shows restores slowing down as snapshots age because of
*chunk fragmentation*: a later snapshot's chunks are scattered across
containers written during many earlier uploads. The paper defers the fix
to "rewriting and caching [46]" (Lillibridge et al., FAST '13). Here a
chunk read is one positioned read of that chunk through a small LRU of
checked open container files (:mod:`repro.storage.container`), so a
restore never re-reads whole containers; :class:`FragmentationAnalyzer`
quantifies fragmentation for a recipe — containers touched, container
switches along the stream, and chunks per container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs import metrics as obs_metrics
from repro.storage.container import ChunkLocation

_REGISTRY = obs_metrics.get_registry()
_RESTORE_FRAGMENTATION = _REGISTRY.gauge(
    "ted_restore_fragmentation_factor",
    "Fragmentation factor of the most recent restore batch "
    "(container switches per chunk, 0 = sequential)",
)


@dataclass(frozen=True)
class FragmentationReport:
    """Fragmentation metrics for one restore sequence."""

    chunks: int
    containers_touched: int
    container_switches: int
    chunks_per_container: float

    @property
    def fragmentation_factor(self) -> float:
        """Container switches per chunk — 0 for perfectly sequential data,
        approaching 1 when every chunk lives in a different container than
        its predecessor (the paper's Figure 9 decline driver)."""
        if self.chunks <= 1:
            return 0.0
        return self.container_switches / (self.chunks - 1)


class FragmentationAnalyzer:
    """Compute fragmentation metrics from chunk locations."""

    @staticmethod
    def analyze(locations: Sequence[ChunkLocation]) -> FragmentationReport:
        """Analyze a restore sequence (recipe order)."""
        if not locations:
            return FragmentationReport(0, 0, 0, 0.0)
        containers = {loc.container_id for loc in locations}
        switches = sum(
            1
            for previous, current in zip(locations, locations[1:])
            if previous.container_id != current.container_id
        )
        return FragmentationReport(
            chunks=len(locations),
            containers_touched=len(containers),
            container_switches=switches,
            chunks_per_container=len(locations) / len(containers),
        )
