"""Restore-path optimization: look-ahead container scheduling.

Experiment B.5 shows restores slowing down as snapshots age because of
*chunk fragmentation*: a later snapshot's chunks are scattered across
containers written during many earlier uploads, so a naive in-order restore
re-fetches the same containers repeatedly once they fall out of the small
LRU cache. The paper defers the fix to "rewriting and caching [46]"
(Lillibridge et al., FAST '13); this module implements the caching half:

* :class:`FragmentationAnalyzer` quantifies fragmentation for a recipe —
  containers touched, container switches along the stream, and the
  chunks-per-container-read ratio that predicts restore speed.
* :class:`LookaheadRestorer` restores a chunk sequence using a sliding
  look-ahead window: within the window, all chunks living in the same
  container are served from one container fetch, so each container is read
  ~once per window instead of once per cache eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from repro.obs import metrics as obs_metrics
from repro.storage.container import ChunkLocation, ContainerStore

_REGISTRY = obs_metrics.get_registry()
_RESTORE_CONTAINER_EVENTS = _REGISTRY.counter(
    "ted_restore_container_events_total",
    "Look-ahead restorer container accesses (fetches vs cache hits)",
    labelnames=("event",),
)
_RESTORE_WINDOWS = _REGISTRY.counter(
    "ted_restore_windows_total",
    "Look-ahead windows processed by the restorer",
)
_RESTORE_CHUNKS = _REGISTRY.counter(
    "ted_restore_chunks_total",
    "Chunks served through look-ahead restore scheduling",
)
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


class LookaheadRestorer:
    """Container-aware restore scheduler.

    The container LRU persists across :meth:`restore` calls, so a
    recipe-ordered stream of ``GetChunks`` batches (the client's
    download path issues one call per batch) keeps its working set warm
    between calls instead of refetching at every batch boundary. The
    still-open container is never cached: it is still being appended
    to, and a cached snapshot would serve stale bytes on the next call.

    Args:
        store: the container store to read from.
        window_chunks: look-ahead window size in chunks. Larger windows
            amortize container fetches better at the cost of memory
            (the fetched-container working set).
        cache_containers: containers kept across window boundaries.
    """

    def __init__(
        self,
        store: ContainerStore,
        window_chunks: int = 512,
        cache_containers: int = 4,
    ) -> None:
        if window_chunks <= 0:
            raise ValueError("window_chunks must be positive")
        if cache_containers < 0:
            raise ValueError("cache_containers cannot be negative")
        self.store = store
        self.window_chunks = window_chunks
        self.cache_containers = cache_containers
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self.stats = {
            "container_fetches": 0,
            "window_count": 0,
            "cache_hits": 0,
        }

    def restore(
        self, locations: Sequence[ChunkLocation]
    ) -> Iterator[bytes]:
        """Yield chunk payloads in recipe order with batched container I/O."""
        cache = self._cache
        for start in range(0, len(locations), self.window_chunks):
            window = locations[start : start + self.window_chunks]
            self.stats["window_count"] += 1
            _RESTORE_WINDOWS.inc()
            # Fetch every container the window needs exactly once. The
            # open container bypasses the cross-call cache (see class
            # docstring) but is still fetched only once per window.
            open_id = getattr(self.store, "open_container_id", None)
            window_data: Dict[int, bytes] = {}
            for location in window:
                container_id = location.container_id
                if container_id in window_data:
                    continue
                cached = cache.get(container_id)
                if cached is not None:
                    cache.move_to_end(container_id)
                    self.stats["cache_hits"] += 1
                    _RESTORE_CONTAINER_EVENTS.labels(
                        event="cache_hit"
                    ).inc()
                    window_data[container_id] = cached
                    continue
                data = self.store.load_container(container_id)
                self.stats["container_fetches"] += 1
                _RESTORE_CONTAINER_EVENTS.labels(event="fetch").inc()
                window_data[container_id] = data
                if open_id is None or container_id < open_id:
                    cache[container_id] = data
            for location in window:
                data = window_data[location.container_id]
                end = location.offset + location.length
                if end > len(data):
                    raise ValueError(
                        f"chunk location out of bounds: {location}"
                    )
                yield data[location.offset : end]
            _RESTORE_CHUNKS.inc(len(window))
            # Shrink the cache to the cross-window retention budget.
            while len(cache) > self.cache_containers:
                cache.popitem(last=False)

    def restore_all(self, locations: Sequence[ChunkLocation]) -> List[bytes]:
        """Materialized form of :meth:`restore`."""
        return list(self.restore(locations))
