"""A restore never returns bytes other than the ones uploaded.

The provider is not trusted to hand back what it was asked for: a
flipped bit in a sealed container, or a reply damaged on the wire, must
make ``download`` raise — the stream-cipher profiles carry no MAC, so
without the client's ciphertext-vs-fingerprint check (DESIGN.md §10)
such a restore would return a file of the right length with wrong
bytes. fsck finds the same flipped byte on the store side.
"""

import random
from pathlib import Path

import pytest

from tests.harness.differential import make_key_manager

from repro.crypto.cipher import get_profile
from repro.storage.container import _MAGIC, parse_container
from repro.storage.scrub import fsck_path
from repro.tedstore import messages as m
from repro.tedstore.client import TedStoreClient
from repro.tedstore.faults import FaultPlan, FaultyProvider
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.provider import ProviderService

_DATA = random.Random(28).randbytes(200_000)


def _client(provider, profile, **kwargs):
    return TedStoreClient(
        LocalKeyManager(KeyManagerService(make_key_manager("mle"))),
        provider,
        profile=get_profile(profile),
        sketch_width=2**16,
        batch_size=8,
        **kwargs,
    )


def _provider(directory):
    return ProviderService(directory=str(directory), container_bytes=64 << 10)


def _upload(directory, profile):
    provider = _provider(directory)
    _client(LocalProvider(provider), profile).upload("f", _DATA)
    provider.close()  # seals the open container


def _flip(directory):
    """Flip one byte inside the store's first chunk, in the data section
    of a sealed container."""
    path = min(
        (Path(directory) / "containers").glob("container-*.bin"),
        key=lambda p: int(p.stem.split("-")[1]),
    )
    blob = bytearray(path.read_bytes())
    _, entries = parse_container(bytes(blob))
    entry = entries[0]
    blob[len(_MAGIC) + entry.offset + entry.length // 2] ^= 0x01
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("profile", ["shactr", "fast", "secure"])
def test_flipped_data_byte_fails_the_restore(tmp_path, profile, workers):
    _upload(tmp_path, profile)
    _flip(tmp_path)
    provider = _provider(tmp_path)  # restart: cold containers
    client = _client(LocalProvider(provider), profile, workers=workers)
    with pytest.raises(ValueError, match="does not match its fingerprint"):
        client.download("f")
    provider.close()
    report = fsck_path(tmp_path)
    assert not report.clean
    assert len(report.bad_chunks) == 1


def test_intact_store_still_restores(tmp_path):
    _upload(tmp_path, "shactr")
    provider = _provider(tmp_path)
    client = _client(LocalProvider(provider), "shactr", workers=3)
    assert client.download("f") == _DATA
    provider.close()


class _CorruptChunkReplies:
    """Damages every ``GetChunks`` reply on the wire; recipes are clean."""

    def __init__(self, inner, seed):
        self._inner = inner
        self._faulty = FaultyProvider(
            inner, FaultPlan(corrupt_rate=1.0, seed=seed)
        )

    def get_chunks(self, request):
        return self._faulty.get_chunks(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("workers", [1, 3])
def test_corrupt_chunk_replies_raise_or_restore_exactly(workers):
    provider = LocalProvider(ProviderService(in_memory=True))
    _client(provider, "shactr").upload("f", _DATA)
    raised = 0
    for seed in range(12):
        client = _client(
            _CorruptChunkReplies(provider, seed), "shactr", workers=workers
        )
        try:
            restored = client.download("f")
        except (ValueError, m.ProtocolError):
            raised += 1
        else:
            assert restored == _DATA
    assert raised  # every reply was damaged; some must have been caught
