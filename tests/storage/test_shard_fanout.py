"""The ring fan-out on its own (DESIGN.md §15).

Every router in the deployment — the provider's sharded engine, the
fleet client, the KM front — is one ``ShardFanout.run`` call, so the
routing contract is pinned once, here, over random owner lists.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.storage.sharded import ShardFanout

_SHARDS = 6

_owner_lists = st.lists(st.integers(0, _SHARDS - 1), max_size=64)


class _Refused(Exception):
    pass


def _run(owners, refusing=frozenset()):
    """One fan-out; returns the ordered event log and the routed result."""
    fanout = ShardFanout("test", range(_SHARDS))
    events = []

    def admit(shard):
        events.append(("admit", shard))
        if shard in refusing:
            raise _Refused(shard)

    def call(shard, sub_items):
        events.append(("call", shard))
        return sub_items

    items = [("item", p) for p in range(len(owners))]
    return fanout, events, lambda: fanout.run(owners, items, call, admit=admit)


@given(_owner_lists)
def test_every_position_is_delivered_once_in_order(owners):
    fanout, events, run = _run(owners)
    routed = run()
    delivered = [p for positions, _ in routed for p in positions]
    assert sorted(delivered) == list(range(len(owners)))
    for positions, _ in routed:
        assert positions == sorted(positions)  # arrival order in a group
        assert len({owners[p] for p in positions}) == 1  # one owner each
    visited = [shard for kind, shard in events if kind == "call"]
    assert visited == sorted(set(owners))  # shard-id order, targets only
    assert ShardFanout.scatter(routed, len(owners)) == [
        ("item", p) for p in range(len(owners))
    ]
    assert fanout.counts == {
        shard: owners.count(shard) for shard in range(_SHARDS)
    }


@given(_owner_lists)
def test_every_admission_precedes_every_call(owners):
    _, events, run = _run(owners)
    run()
    kinds = [kind for kind, _ in events]
    targets = len(set(owners))
    assert kinds == ["admit"] * targets + ["call"] * targets
    assert [s for k, s in events if k == "admit"] == sorted(set(owners))


@given(_owner_lists.filter(bool), st.data())
def test_a_refused_admission_sends_nothing(owners, data):
    refusing = data.draw(
        st.sets(st.sampled_from(sorted(set(owners))), min_size=1)
    )
    fanout, events, run = _run(owners, frozenset(refusing))
    with pytest.raises(_Refused) as excinfo:
        run()
    assert excinfo.value.args == (min(refusing),)
    assert all(kind == "admit" for kind, _ in events)
    assert not any(fanout.counts.values())  # nothing routed, nothing metered


def test_admission_is_optional():
    fanout = ShardFanout("test", [0, 1])
    routed = fanout.run([1, 0, 1], "abc", lambda shard, sub: "".join(sub))
    assert routed == [([1], "b"), ([0, 2], "ac")]


def test_routed_keys_sum_over_every_router_in_the_process():
    # Each fleet client owns a router. The process-wide counter sums
    # them, so its max/mean over shards is the imbalance; a gauge that
    # each router set from its own counts read 1.0 here.
    from repro.obs.metrics import get_registry

    keys = get_registry().get("ted_shard_routed_keys_total")
    before = [keys.labels(side="sum-test", shard=s).value for s in "01"]
    first = ShardFanout("sum-test", [0, 1])
    second = ShardFanout("sum-test", [0, 1])
    first.run([0] * 100, range(100), lambda shard, sub: None)
    second.run([0] * 5 + [1] * 5, range(10), lambda shard, sub: None)
    routed = [
        keys.labels(side="sum-test", shard=s).value - b
        for s, b in zip("01", before)
    ]
    assert routed == [105, 5]
    assert max(routed) / (sum(routed) / 2) == pytest.approx(1.909, abs=1e-3)
    assert (first.counts, second.counts) == ({0: 100, 1: 0}, {0: 5, 1: 5})
    assert get_registry().get("ted_shard_imbalance") is None
