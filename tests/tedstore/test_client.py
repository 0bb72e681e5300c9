"""TEDStore client over the in-process deployment."""

import random

import pytest

from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.core.ted import TedKeyManager
from repro.crypto.cipher import FAST, SECURE, SHACTR
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.provider import ProviderService
from repro.traces.workload import unique_file

_W = 2**14

#: Recipe of a 20,000-byte file "f" stored in the retired metadata-dedup
#: layout, sealed under ``b"\x01" * 32``: the file slot holds a sealed
#: ``MDR1`` meta recipe and the key slot is empty.
_METADEDUP_SEALED_RECIPE = bytes.fromhex(
    "ef26a862bfe16c9c33393b8b99aea1920687bc222b2397568712ec6b16f0c70f"
    "035902056d581bda8fe17addd0d608f50f0344a3d9bd1bb177ca94765ed59ed0"
    "6ce65b750a4de9bdb5abb297855e48d04b0e660a1dacf4b232089b68e680594b"
    "b7fac35c6b674a6fc73bdfdd371d7063fe385d3a86e6eb4c2d"
)


class _SpyProvider:
    """Passes every call through; records each ``GetChunks`` request."""

    def __init__(self, inner):
        self.inner = inner
        self.chunk_requests = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def get_chunks(self, request):
        self.chunk_requests.append(request)
        return self.inner.get_chunks(request)


def _make_client(
    tmp_path=None,
    profile=SHACTR,
    master_key=b"\x01" * 32,
    batch_size=200,
    blowup_factor=1.05,
    provider=None,
):
    key_manager = KeyManagerService(
        TedKeyManager(
            secret=b"client-test-secret",
            blowup_factor=blowup_factor,
            batch_size=batch_size,
            sketch_width=_W,
            rng=random.Random(4),
        )
    )
    if provider is None:
        if tmp_path is None:
            provider = ProviderService(in_memory=True)
        else:
            provider = ProviderService(
                directory=str(tmp_path), container_bytes=64 << 10
            )
    return TedStoreClient(
        LocalKeyManager(key_manager),
        LocalProvider(provider),
        master_key=master_key,
        profile=profile,
        sketch_width=_W,
        batch_size=batch_size,
        chunker=ContentDefinedChunker(
            ChunkerParams(min_size=1024, avg_size=2048, max_size=4096)
        ),
    )


class TestUploadDownload:
    @pytest.mark.parametrize("profile", [SHACTR, FAST])
    def test_roundtrip(self, profile):
        client = _make_client(profile=profile)
        data = unique_file(100_000)
        client.upload("file", data)
        assert client.download("file") == data

    def test_roundtrip_secure_profile_small(self):
        # Pure-Python AES-256 path; keep the payload small.
        client = _make_client(profile=SECURE)
        data = unique_file(8_000)
        client.upload("file", data)
        assert client.download("file") == data

    def test_roundtrip_on_disk(self, tmp_path):
        client = _make_client(tmp_path=tmp_path)
        data = unique_file(60_000)
        client.upload("file", data)
        client.provider.service.flush()
        assert client.download("file") == data

    def test_empty_file(self):
        client = _make_client()
        client.upload("empty", b"")
        assert client.download("empty") == b""

    def test_multiple_files(self):
        client = _make_client()
        files = {f"f{i}": unique_file(20_000, client_id=i) for i in range(4)}
        for name, data in files.items():
            client.upload(name, data)
        for name, data in files.items():
            assert client.download(name) == data

    def test_duplicate_upload_partially_deduplicates(self):
        # FTED starts at t = 1 and has not tuned yet on this tiny upload, so
        # duplicates spread across key-seed buckets — dedup happens but is
        # deliberately partial (the TED trade-off in action).
        client = _make_client()
        data = unique_file(100_000)
        first = client.upload("f1", data)
        second = client.upload("f2", data)
        assert first.duplicate_chunks == 0
        assert second.duplicate_chunks > 0
        assert second.duplicate_chunks + second.stored_chunks == \
            second.chunk_count

    def test_duplicate_upload_full_dedup_with_large_t(self):
        # BTED with t far above any frequency reduces to MLE: the second
        # upload of identical data must deduplicate completely.
        key_manager = KeyManagerService(
            TedKeyManager(secret=b"s", t=10_000, sketch_width=_W)
        )
        client = TedStoreClient(
            LocalKeyManager(key_manager),
            LocalProvider(ProviderService(in_memory=True)),
            profile=SHACTR,
            sketch_width=_W,
            batch_size=200,
            chunker=ContentDefinedChunker(
                ChunkerParams(min_size=1024, avg_size=2048, max_size=4096)
            ),
        )
        data = unique_file(100_000)
        client.upload("f1", data)
        second = client.upload("f2", data)
        assert second.stored_chunks == 0
        assert second.duplicate_chunks == second.chunk_count

    def test_upload_chunks_trace_path(self):
        client = _make_client()
        chunks = [unique_file(3000, client_id=i) for i in range(10)]
        result = client.upload_chunks("trace-file", chunks)
        assert result.chunk_count == 10
        assert client.download("trace-file") == b"".join(chunks)

    def test_upload_result_accounting(self):
        client = _make_client()
        data = unique_file(50_000)
        result = client.upload("file", data)
        assert result.logical_bytes == len(data)
        assert result.stored_chunks + result.duplicate_chunks == \
            result.chunk_count


class TestSecurity:
    def test_wrong_master_key_cannot_download(self):
        provider = ProviderService(in_memory=True)
        uploader = _make_client(master_key=b"\x01" * 32, provider=provider)
        thief = _make_client(master_key=b"\x02" * 32, provider=provider)
        uploader.upload("secret-file", unique_file(20_000))
        with pytest.raises(ValueError):
            thief.download("secret-file")

    def test_stored_chunks_are_ciphertext(self):
        provider = ProviderService(in_memory=True)
        client = _make_client(provider=provider)
        data = unique_file(30_000)
        client.upload("f", data)
        stored = b"".join(provider.engine.chunks.values())
        # No 64-byte window of the plaintext appears in storage.
        assert data[:64] not in stored

    def test_recipe_served_for_another_name_fails(self):
        # A hostile provider answers "A" with B's (authentic) recipes.
        from repro.tedstore.messages import GetRecipes, PutRecipes

        client = _make_client()
        client.upload("A", unique_file(20_000, client_id=1))
        client.upload("B", unique_file(20_000, client_id=2))
        data_fingerprints = {
            fingerprint
            for name in ("A", "B")
            for fingerprint, _size in client._fetch_recipes(name)[0].entries
        }
        provider = client.provider
        stolen = provider.get_recipes(GetRecipes(file_name="B"))
        provider.put_recipes(
            PutRecipes(
                file_name="A",
                sealed_file_recipe=stolen.sealed_file_recipe,
                sealed_key_recipe=stolen.sealed_key_recipe,
            )
        )
        client.provider = spy = _SpyProvider(provider)
        with pytest.raises(ValueError, match="served for 'A'"):
            client.download("A")
        requested = {
            fingerprint
            for request in spy.chunk_requests
            for fingerprint in request.fingerprints
        }
        assert not data_fingerprints & requested

    def test_retired_metadata_dedup_recipe_is_refused(self):
        # A recipe stored in the retired layout fails typed, before any
        # chunk is fetched.
        from repro.storage.recipe import unseal
        from repro.tedstore.messages import PutRecipes

        client = _make_client()
        assert unseal(client.master_key, _METADEDUP_SEALED_RECIPE)[:4] == (
            b"MDR1"
        )
        client.provider.put_recipes(
            PutRecipes(
                file_name="f",
                sealed_file_recipe=_METADEDUP_SEALED_RECIPE,
                sealed_key_recipe=b"",
            )
        )
        client.provider = spy = _SpyProvider(client.provider)
        with pytest.raises(ValueError, match="retired metadata-dedup"):
            client.download("f")
        assert spy.chunk_requests == []

    def test_key_manager_never_sees_fingerprints(self):
        # The client only ever sends short hashes (ints < sketch width).
        captured = []

        class SpyKeyManager:
            def __init__(self, inner):
                self.inner = inner

            def keygen_batched(self, request):
                captured.extend(request.hash_vectors)
                return self.inner.keygen_batched(request)

        client = _make_client()
        client.key_manager = SpyKeyManager(client.key_manager)
        client.upload("f", unique_file(20_000))
        assert captured
        for vector in captured:
            assert len(vector) == 4
            assert all(0 <= h < _W for h in vector)


class TestInstrumentation:
    def test_stage_timer_covers_pipeline(self):
        client = _make_client()
        client.upload("f", unique_file(30_000))
        totals = client.timer.totals()
        for stage in (
            "chunking",
            "fingerprinting",
            "hashing",
            "key seeding",
            "key derivation",
            "encryption",
            "write",
        ):
            assert stage in totals, stage
        client.download("f")
        totals = client.timer.totals()
        assert "chunk fetch" in totals
        assert "decryption" in totals

    def test_batching_splits_requests(self):
        client = _make_client(batch_size=5)
        chunks = [unique_file(1000, client_id=i) for i in range(12)]
        client.upload_chunks("f", chunks)
        # 12 chunks at batch size 5 → 3 key-generation round trips.
        stats = dict(client.key_manager.service.stats())
        assert stats["requests"] == 12

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            _make_client(batch_size=0)

    def test_recipe_count_mismatch_detected(self):
        client = _make_client()
        client.upload("f", unique_file(10_000))
        # Corrupt the stored key recipe by re-sealing a truncated one.
        from repro.storage.recipe import KeyRecipe, seal, unseal
        from repro.tedstore.messages import GetRecipes, PutRecipes

        provider = client.provider
        recipes = provider.get_recipes(GetRecipes(file_name="f"))
        key_recipe = KeyRecipe.deserialize(
            unseal(client.master_key, recipes.sealed_key_recipe)
        )
        key_recipe.keys.pop()
        provider.put_recipes(
            PutRecipes(
                file_name="f",
                sealed_file_recipe=recipes.sealed_file_recipe,
                sealed_key_recipe=seal(
                    client.master_key, key_recipe.serialize()
                ),
            )
        )
        with pytest.raises(ValueError):
            client.download("f")
