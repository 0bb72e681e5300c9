"""Consistent-hash ring for sharding the key manager and provider.

Both sides of TEDStore shard by fingerprint range (ROADMAP item 2): the
key manager routes each chunk's short-hash vector, the provider routes
each cipher fingerprint. Because a given identity always hashes to the
same point on the ring, it always lands on the same shard — which is
the whole correctness argument for sharded TED (DESIGN.md §15): every
per-shard Count-Min sketch sees *all* occurrences of every identity it
owns, so per-shard frequency estimates are exactly what a single
sketch would have produced for that identity (Eqs. 2–4 unchanged).

The ring is classic seeded-virtual-node consistent hashing:

* every shard contributes ``vnodes`` points, each the first 8 bytes of
  ``sha256("ring:<seed>:<shard>:<vnode>")`` — deterministic across
  processes and machines, so clients and servers built from the same
  ``(seed, vnodes, shards)`` config agree on placement without talking;
* a key routes to the shard owning the first point at or after the
  key's own hash (wrapping at the top);
* adding a shard only moves keys onto the new shard; removing one only
  scatters that shard's keys — the monotonicity that makes
  ``repro reshard`` migrations proportional to ``1/N`` of the data.

The ring config is plain JSON (``ring.json`` at the storage / KM state
root), written atomically through the crash-injection shim so a torn
write can never leave a half-ring behind. ``epoch`` increments on every
membership change; caches keyed by placement (the client
:class:`~repro.storage.dedup.FingerprintCache`) invalidate on epoch
advance (DESIGN.md §15).

For multi-process deployments (DESIGN.md §17) the ring optionally
carries a per-shard **endpoint map** (``shard id -> "host:port"``).
Endpoints describe *where* a shard is served, never *what* it owns:
they are excluded from placement equality and from the serialized form
when empty, so endpoint-less rings stay byte-identical to the PR 8
format and an in-process deployment can adopt a ring written by a
fleet (or vice versa) without a placement mismatch.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage import crash

DEFAULT_VNODES = 64

_RING_VERSION = 1


def _vnode_point(seed: int, shard: int, vnode: int) -> int:
    digest = hashlib.sha256(
        b"ring:%d:%d:%d" % (seed, shard, vnode)
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _key_point(key: bytes) -> int:
    return int.from_bytes(hashlib.sha256(b"key:" + key).digest()[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring over integer shard ids.

    Args:
        shards: the member shard ids (conventionally ``0..N-1``).
        vnodes: virtual nodes per shard; more vnodes → better balance.
        seed: placement seed — rings with different seeds place keys
            differently, rings with the same config place identically.
        epoch: membership generation, bumped by :meth:`add_shard` /
            :meth:`remove_shard` (and hence by ``repro reshard``).
        endpoints: optional ``shard id -> "host:port"`` map naming where
            each shard is served (multi-process deployments). Advisory
            topology only — never part of placement or equality.

    Example:
        >>> ring = HashRing.build(3)
        >>> ring.shard_for_key(b"fingerprint") in (0, 1, 2)
        True
    """

    def __init__(
        self,
        shards: Sequence[int],
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
        epoch: int = 0,
        endpoints: Optional[Dict[int, str]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("duplicate shard ids in ring")
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.shards: Tuple[int, ...] = tuple(sorted(int(s) for s in shards))
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        self.epoch = int(epoch)
        self.endpoints: Dict[int, str] = {
            int(k): str(v) for k, v in (endpoints or {}).items()
        }
        unknown = set(self.endpoints) - set(self.shards)
        if unknown:
            raise ValueError(
                f"endpoints name shards not in the ring: {sorted(unknown)}"
            )
        # Sorted (point, shard) pairs; ties broken by shard id so the
        # ring is a pure function of its config.
        points: List[Tuple[int, int]] = []
        for shard in self.shards:
            for vnode in range(self.vnodes):
                points.append((_vnode_point(self.seed, shard, vnode), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @classmethod
    def build(
        cls, count: int, vnodes: int = DEFAULT_VNODES, seed: int = 0
    ) -> "HashRing":
        """A fresh epoch-0 ring over shards ``0..count-1``."""
        if count < 1:
            raise ValueError("shard count must be at least 1")
        return cls(range(count), vnodes=vnodes, seed=seed)

    # -- placement ---------------------------------------------------------

    def shard_for_key(self, key: bytes) -> int:
        """Owning shard for a byte key (a cipher fingerprint)."""
        index = bisect.bisect_left(self._points, _key_point(key))
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[index]

    def shard_for_hashes(self, short_hashes: Sequence[int]) -> int:
        """Owning shard for a chunk's short-hash vector (the KM side).

        The KM never sees fingerprints, only the ``r`` short hashes per
        chunk — the canonical encoding below is the identity the ring
        hashes, so the same vector always routes to the same shard.
        """
        return self.shard_for_key(
            ":".join(str(int(h)) for h in short_hashes).encode("ascii")
        )

    # -- endpoints ---------------------------------------------------------

    def endpoint_for(self, shard: int) -> Optional[str]:
        """The ``host:port`` serving ``shard``, if one is published."""
        return self.endpoints.get(int(shard))

    def with_endpoints(self, endpoints: Dict[int, str]) -> "HashRing":
        """The same placement (same epoch) with a new endpoint map."""
        return HashRing(
            self.shards,
            vnodes=self.vnodes,
            seed=self.seed,
            epoch=self.epoch,
            endpoints=endpoints,
        )

    # -- membership --------------------------------------------------------

    def add_shard(self, shard: Optional[int] = None) -> "HashRing":
        """A new ring with one more shard and ``epoch + 1``."""
        if shard is None:
            shard = max(self.shards) + 1
        if shard in self.shards:
            raise ValueError(f"shard {shard} already in ring")
        return HashRing(
            self.shards + (int(shard),),
            vnodes=self.vnodes,
            seed=self.seed,
            epoch=self.epoch + 1,
            endpoints=self.endpoints,
        )

    def remove_shard(self, shard: int) -> "HashRing":
        """A new ring without ``shard`` and ``epoch + 1``."""
        if shard not in self.shards:
            raise ValueError(f"shard {shard} not in ring")
        if len(self.shards) == 1:
            raise ValueError("cannot remove the last shard")
        return HashRing(
            tuple(s for s in self.shards if s != shard),
            vnodes=self.vnodes,
            seed=self.seed,
            epoch=self.epoch + 1,
            endpoints={
                k: v for k, v in self.endpoints.items() if k != shard
            },
        )

    # -- config ------------------------------------------------------------

    def placement_dict(self) -> Dict[str, object]:
        """The placement-defining config (endpoints excluded)."""
        return {
            "version": _RING_VERSION,
            "seed": self.seed,
            "vnodes": self.vnodes,
            "epoch": self.epoch,
            "shards": list(self.shards),
        }

    def to_dict(self) -> Dict[str, object]:
        data = self.placement_dict()
        if self.endpoints:
            # Omitted when empty so endpoint-less rings serialize
            # byte-identically to the pre-endpoint (PR 8) format.
            data["endpoints"] = {
                str(k): v for k, v in sorted(self.endpoints.items())
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HashRing":
        version = data.get("version")
        if version != _RING_VERSION:
            raise ValueError(f"unsupported ring config version: {version!r}")
        endpoints = {
            int(k): str(v)
            for k, v in (data.get("endpoints") or {}).items()  # type: ignore[union-attr]
        }
        return cls(
            data["shards"],  # type: ignore[arg-type]
            vnodes=int(data["vnodes"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            epoch=int(data["epoch"]),  # type: ignore[arg-type]
            endpoints=endpoints,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HashRing":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        # Placement equality only: two rings that agree on who owns what
        # are "the same ring" even if one also knows where shards live.
        return (
            isinstance(other, HashRing)
            and self.placement_dict() == other.placement_dict()
        )

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashRing(shards={self.shards}, vnodes={self.vnodes}, "
            f"seed={self.seed}, epoch={self.epoch})"
        )


def recipe_key(file_name: bytes) -> bytes:
    """The ring key a file's recipes are placed by (DESIGN.md §17).

    Recipes ride the same ring as chunks under a distinct prefix, so a
    file's recipe placement is deterministic but uncorrelated with any
    single chunk's placement. ``file_name`` is the UTF-8 name, the key
    of the provider's recipe store.
    """
    return b"recipe:" + file_name


def store_ring(path, ring: HashRing) -> None:
    """Atomically persist ``ring`` as JSON (torn-write safe)."""
    crash.atomic_write_bytes(
        Path(path), ring.to_json().encode("utf-8") + b"\n", scope="ring.config"
    )


def load_ring(path) -> HashRing:
    """Load a ring config previously written by :func:`store_ring`."""
    return HashRing.from_json(Path(path).read_text("utf-8"))


__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "load_ring",
    "recipe_key",
    "store_ring",
]
