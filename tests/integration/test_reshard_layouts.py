"""Reshard works on whole leaves: chunks and recipes move, files restore.

A sharded store is ``ring.json`` plus one complete provider root per
shard under ``shards/<k>/`` (DESIGN.md §15). ``repro reshard`` must move
each leaf's chunks *and* recipes to their new owners, so every file
restores byte-identical through the fleet client afterwards; it must
keep the endpoints of the shards that survive; and it must convert the
two other layouts a provider root can have — unsharded, and the
in-process sharded layout of an earlier release (committed fixture
``data/inproc_sharded_store``) — into leaves. Serving processes refuse
a root whose migration is unfinished.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.ted import TedKeyManager
from repro.crypto.cipher import get_profile
from repro.storage import crash
from repro.storage.crash import InjectedCrash
from repro.storage.scrub import fsck_path
from repro.tedstore.client import TedStoreClient
from repro.tedstore.fleet import LocalFleet
from repro.tedstore.inprocess import LocalKeyManager
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.reshard import pending_reshard, reshard_provider
from repro.tedstore.ring import HashRing, load_ring

DATA = Path(__file__).parent / "data"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"
TENANTS = ("default", "alice")


def _client(provider) -> TedStoreClient:
    key_manager = TedKeyManager(secret=b"layouts", t=3, sketch_width=2**12)
    return TedStoreClient(
        LocalKeyManager(KeyManagerService(key_manager)),
        provider,
        profile=get_profile("shactr"),
        sketch_width=2**12,
        batch_size=64,
    )


def _files(count: int) -> dict:
    rng = random.Random(5)
    blocks = [rng.randbytes(1024) for _ in range(8)]
    return {
        f"file-{i:02d}": b"".join(
            blocks[rng.randrange(8)] + rng.randbytes(64) for _ in range(3)
        )
        for i in range(count)
    }


def _upload(fleet: LocalFleet, files: dict) -> None:
    for tenant in TENANTS:
        client = _client(fleet.transport(tenant))
        for name, data in files.items():
            client.upload(name, data)


def _restored(root: Path, files: dict, tenants=TENANTS) -> None:
    """Every file, in every tenant, restores byte-identical."""
    fleet = LocalFleet(root, cross_user_dedup=False)
    try:
        for tenant in tenants:
            client = _client(fleet.transport(tenant))
            for name, data in files.items():
                assert client.download(name) == data, (tenant, name)
    finally:
        fleet.close()
    assert fsck_path(root).clean


def _root_entries(root: Path) -> list:
    """What a migrated root holds besides its (finished) reshard log."""
    return sorted(p.name for p in root.iterdir() if p.name != "reshard.log")


def test_fleet_reshard_round_trip(tmp_path):
    """2 -> 3 -> 2 leaves: every file restores after each migration."""
    files = _files(40)
    root = tmp_path / "store"
    fleet = LocalFleet(
        root, HashRing.build(2, seed=1), cross_user_dedup=False
    )
    _upload(fleet, files)
    fleet.close()

    grown = reshard_provider(root, 3)
    assert grown["shards"] == [0, 1, 2]
    assert grown["moved_recipes"] > 0
    _restored(root, files)

    shrunk = reshard_provider(root, 2)
    assert shrunk["shards"] == [0, 1]
    assert not (root / "shards" / "2").exists()
    _restored(root, files)


def test_unsharded_root_splits_into_leaves(tmp_path):
    """An unsharded provider root (recipes and tenants at the root)
    becomes leaves: nothing is left outside ``shards/<k>/``. A tenant
    may be called like the leaf directory."""
    from repro.tedstore.inprocess import LocalProvider
    from repro.tedstore.provider import ProviderService

    files = _files(12)
    root = tmp_path / "store"
    service = ProviderService(directory=root, cross_user_dedup=False)
    tenants = ("default", "shards")
    for tenant in tenants:
        client = _client(LocalProvider(service, tenant=tenant))
        for name, data in files.items():
            client.upload(name, data)
    service.close()

    reshard_provider(root, 3)
    assert _root_entries(root) == ["ring.json", "shards"]
    _restored(root, files, tenants)


@pytest.mark.parametrize("shards", [2, 3])
def test_in_process_sharded_store_converts(tmp_path, shards):
    """A store an earlier in-process sharded provider wrote (recipes at
    the root, private engines under ``tenants/<id>/shards/<k>``)
    converts with ``repro reshard``, even at its own shard count."""
    root = tmp_path / "store"
    shutil.copytree(DATA / "inproc_sharded_store", root)
    manifest = json.loads(
        (DATA / "inproc_sharded_store.manifest.json").read_text()
    )
    assert main(
        ["reshard", "--shards", str(shards), "--storage", str(root)]
    ) == 0
    assert _root_entries(root) == ["ring.json", "shards"]
    fleet = LocalFleet(root, cross_user_dedup=False)
    try:
        for tenant, digests in manifest.items():
            client = _client(fleet.transport(tenant))
            for name, digest in digests.items():
                restored = client.download(name)
                assert hashlib.sha256(restored).hexdigest() == digest
    finally:
        fleet.close()
    assert fsck_path(root).clean


def test_reshard_keeps_surviving_endpoints(tmp_path, capsys):
    root = tmp_path / "store"
    ring = HashRing.build(2).with_endpoints(
        {0: "127.0.0.1:7001", 1: "127.0.0.1:7002"}
    )
    LocalFleet(root, ring).close()

    assert main(
        ["reshard", "--shards", "3", "--storage", str(root), "--json"]
    ) == 0
    (summary,) = json.loads(capsys.readouterr().out)
    assert summary["needs_endpoint"] == [2]
    assert load_ring(root / "ring.json").endpoints == {
        0: "127.0.0.1:7001",
        1: "127.0.0.1:7002",
    }

    result = reshard_provider(root, 1)
    assert result["needs_endpoint"] == []
    assert load_ring(root / "ring.json").endpoints == {0: "127.0.0.1:7001"}


def test_serve_provider_refuses_a_sharded_root(tmp_path, capsys):
    root = tmp_path / "store"
    LocalFleet(root, HashRing.build(2)).close()
    assert main(
        ["serve-provider", "--storage", str(root), "--port", "0"]
    ) == 2
    assert "serve-shard" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["provider", "km"])
def test_serve_shard_refuses_an_unfinished_reshard(tmp_path, role):
    """The migration log sits at the root, not in the leaf a shard
    process serves: both roles must look there before serving."""
    root = tmp_path / "store"
    LocalFleet(root, HashRing.build(2)).close()
    injector = crash.get_injector()
    injector.arm("reshard.provider.cutover")
    try:
        with pytest.raises(InjectedCrash):
            reshard_provider(root, 3)
    finally:
        injector.reset()
    assert pending_reshard(root)
    command = [
        sys.executable, "-m", "repro.cli", "serve-shard", "--role", role,
        "--shard", "0", "--root", str(root), "--ephemeral",
    ]
    if role == "provider":
        command.remove("--ephemeral")
    proc = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )
    assert proc.returncode == 2
    assert "unfinished reshard" in proc.stderr
