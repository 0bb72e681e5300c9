"""Instrumentation cost on the data path, in registry updates per chunk.

Every registry update takes the instrument's lock, and a labelled one
also a label lookup. An update made once per batch is noise; one made
once per chunk is paid by every chunk of every upload and restore, so
it must earn its place with a reader (DESIGN.md §9). This test runs one
in-process round trip — ``shactr``, an on-disk provider, containers
sealed before the restore — and counts every counter, gauge and
histogram update the process registry takes per chunk.

The one per-chunk update left on restore is
``ted_container_events_total{event="cache_hit"}``: a chunk read through
an already-open container file, the operator's only view of container
reads over TCP (RUNBOOK "Monitoring a restore").
"""

from __future__ import annotations

import random

import pytest

from repro.obs.metrics import CounterChild, GaugeChild, HistogramChild
from tests.harness.differential import make_deployment

FILES = 8
FILE_BYTES = 1 << 20

#: Registry updates allowed per chunk.
MAX_UPDATES_PER_UPLOADED_CHUNK = 0.5
MAX_UPDATES_PER_RESTORED_CHUNK = 1.5


@pytest.fixture
def updates(monkeypatch):
    """A one-element list counting every registry update."""
    count = [0]

    def counted(method):
        def wrapper(self, *args, **kwargs):
            count[0] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for cls, names in (
        (CounterChild, ("inc",)),
        (GaugeChild, ("set", "inc", "dec")),
        (HistogramChild, ("observe",)),
    ):
        for name in names:
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    return count


def test_registry_updates_per_chunk(tmp_path, updates):
    deployment = make_deployment("fted", tmp_path)  # shactr, on disk
    client, provider = deployment.client, deployment.provider_service
    rng = random.Random(2013)
    files = {f"file-{i}": rng.randbytes(FILE_BYTES) for i in range(FILES)}

    updates[0] = 0
    chunks = sum(
        client.upload(name, data).chunk_count for name, data in files.items()
    )
    upload_updates = updates[0]

    provider.flush()  # restore from sealed containers, not the open one
    updates[0] = 0
    for name, data in files.items():
        assert client.download(name) == data
    restore_updates = updates[0]
    provider.close()

    assert chunks > 500
    assert upload_updates / chunks <= MAX_UPDATES_PER_UPLOADED_CHUNK, (
        f"{upload_updates} registry updates for {chunks} uploaded chunks"
    )
    assert restore_updates / chunks <= MAX_UPDATES_PER_RESTORED_CHUNK, (
        f"{restore_updates} registry updates for {chunks} restored chunks"
    )
