"""Shard fan-out and the on-disk layout of a sharded provider root.

A sharded store (DESIGN.md §15, §17) is ``<root>/ring.json`` plus one
complete provider root per shard under ``<root>/shards/<k>/``: each
leaf has its own dedup engine (LSM index, container pool, WAL-backed
id allocation, crash recovery), its own recipe store and its own
``tenants/<id>/`` namespaces, so every single-store tool (fsck, scrub,
crash recovery) works per leaf unchanged. Routing is the
consistent-hash ring's job (``tedstore/ring.py``); the one router is
the fleet client (``tedstore/fleet.py``), whose fan-out is written
once here (:class:`ShardFanout`).

:func:`store_directories` walks any provider root — unsharded, sharded,
or the in-process layout of earlier releases, whose chunk shards sat
under a shared recipe store — and is the one list of engine and recipe
stores that ``repro fsck`` and ``repro reshard`` both work from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
SHARDS_DIRNAME = "shards"
TENANTS_DIRNAME = "tenants"
RECIPES_DIRNAME = "recipes"

_REGISTRY = obs_metrics.get_registry()
_ROUTED_KEYS = _REGISTRY.counter(
    "ted_shard_routed_keys_total",
    "Keys (fingerprints / hash vectors) routed to a shard",
    labelnames=("side", "shard"),
)


class ShardFanout:
    """The ring fan-out, written once for every router in the deployment.

    One instance per router (fleet client, KM front),
    labelled by ``side``; it also carries the routed-key accounting —
    this router's per-shard key counts (:attr:`counts`) and the
    process-wide ``ted_shard_routed_keys_total``, which sums every
    router in the process.
    """

    def __init__(self, side: str, shard_ids: Sequence[int]) -> None:
        self._side = side
        self._counts: Dict[int, int] = {int(s): 0 for s in shard_ids}

    def run(
        self,
        owners: Sequence[int],
        items: Sequence,
        call: Callable[[int, list], object],
        admit: Optional[Callable[[int], None]] = None,
    ) -> List[Tuple[List[int], object]]:
        """Route one batch: shard ``owners[i]`` owns ``items[i]``.

        Groups the batch per shard, then runs ``admit(shard)`` for
        **every** target shard before anything is sent — a batch that
        cannot fully land (``admit`` raises) reaches no shard at all,
        so fail-fast never manufactures partial cross-shard state.
        Then calls ``call(shard, sub_items)`` in shard-id order;
        ``sub_items`` keeps arrival order, which is all a shard's
        determinism (chunk read order, Count-Min update order)
        needs. Returns ``(positions, result)`` per visited shard for
        the caller to sum or :meth:`scatter`.
        """
        groups: Dict[int, List[int]] = {}
        for position, owner in enumerate(owners):
            groups.setdefault(owner, []).append(position)
        visit = sorted(groups)
        if admit is not None:
            for shard in visit:
                admit(shard)
        routed = []
        for shard in visit:
            positions = groups[shard]
            self.record(shard, len(positions))
            result = call(shard, [items[p] for p in positions])
            routed.append((positions, result))
        return routed

    @staticmethod
    def scatter(
        routed: Iterable[Tuple[List[int], Sequence]], size: int
    ) -> list:
        """Per-shard result sequences back into request order."""
        results: list = [None] * size
        for positions, values in routed:
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def record(self, shard: int, keys: int) -> None:
        self._counts[shard] = self._counts.get(shard, 0) + keys
        _ROUTED_KEYS.labels(side=self._side, shard=str(shard)).inc(keys)

    @property
    def counts(self) -> Dict[int, int]:
        return dict(self._counts)


def shard_directories(directory) -> List[Tuple[int, Path]]:
    """``(shard_id, path)`` pairs under ``<directory>/shards``, sorted."""
    root = Path(directory) / SHARDS_DIRNAME
    if not root.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    for entry in root.iterdir():
        if entry.is_dir() and entry.name.isdigit():
            found.append((int(entry.name), entry))
    return sorted(found)


def holds_engine(directory) -> bool:
    """True when ``directory`` holds a dedup engine's containers or index."""
    return any(
        (Path(directory) / name).is_dir() for name in ("containers", "index")
    )


def store_directories(directory) -> List[Path]:
    """Every directory under a provider root that holds an engine or recipes.

    Walks ``directory`` itself, then each ``shards/<k>/`` and
    ``tenants/<id>/`` below it, recursively, in a stable order. That
    finds the shared engine and default recipes of a provider root,
    private tenant engines and tenant recipes, every leaf of a sharded
    root, and the in-process layout of earlier releases
    (``tenants/<id>/shards/<k>/``) alike.
    """
    root = Path(directory)
    found = []
    if holds_engine(root) or (root / RECIPES_DIRNAME).is_dir():
        found.append(root)
    children = [path for _, path in shard_directories(root)]
    tenants = root / TENANTS_DIRNAME
    if tenants.is_dir():
        children += sorted(p for p in tenants.iterdir() if p.is_dir())
    for child in children:
        found += store_directories(child)
    return found


def engine_roots(directory) -> List[Path]:
    """The dedup-engine directories among :func:`store_directories`."""
    return [p for p in store_directories(directory) if holds_engine(p)]


__all__ = [
    "RECIPES_DIRNAME",
    "SHARDS_DIRNAME",
    "TENANTS_DIRNAME",
    "ShardFanout",
    "engine_roots",
    "holds_engine",
    "shard_directories",
    "store_directories",
]
