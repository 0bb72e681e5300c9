"""Unit tests for the download path (DESIGN.md §10).

Covers the truncation regression (a short ``GetChunks`` reply must raise
instead of silently shortening the restored file), restore-side alias
suppression, fail-fast unwinding, and client reusability after a failed
download.
"""

import threading
import time

import pytest

from repro.tedstore import messages as m
from repro.tedstore.faults import FaultPlan, FaultyProvider, InjectedFault
from repro.tedstore.restore_pipeline import PipelinedDownloader

from tests.harness.differential import make_deployment, make_workload

WORKLOAD = make_workload(
    files=1, chunks_per_file=600, distinct_blocks=25, seed=11
)


class _ShortReplyProvider:
    """Truncates every multi-chunk ``GetChunks`` reply once armed.

    Models a buggy or version-skewed provider that answers with fewer
    chunks than requested — the failure the pre-fix client swallowed via
    ``zip``, returning a silently truncated file.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.armed = False

    def get_chunks(self, request: m.GetChunks) -> m.Chunks:
        reply = self._inner.get_chunks(request)
        if self.armed and len(reply.chunks) > 1:
            return m.Chunks(chunks=reply.chunks[:-1])
        return reply

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _deploy_with_short_replies(tmp_path, **kwargs):
    holder = {}

    def wrap(transport):
        holder["wrapper"] = _ShortReplyProvider(transport)
        return holder["wrapper"]

    deployment = make_deployment(
        "bted", tmp_path, provider_wrap=wrap, **kwargs
    )
    return deployment, holder["wrapper"]


class TestTruncationRegression:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_download_rejects_short_reply(self, tmp_path, workers):
        deployment, wrapper = _deploy_with_short_replies(
            tmp_path, workers=workers
        )
        name, chunks = WORKLOAD[0]
        deployment.client.upload_chunks(name, chunks)
        wrapper.armed = True
        with pytest.raises(ValueError, match="provider returned"):
            deployment.client.download(name)


class TestAliasSuppression:
    def test_repeats_fetched_and_decrypted_once(self, tmp_path):
        """On duplicate-heavy data the prefetcher fetches each unique
        (ciphertext, key) pair once and the workers decrypt it once;
        repeats resolve from the memo without changing a byte."""
        deployment = make_deployment("mle", tmp_path, workers=3)
        name, chunks = WORKLOAD[0]
        deployment.client.upload_chunks(name, chunks)

        client = deployment.client
        file_recipe, key_recipe = client._fetch_recipes(name)
        downloader = PipelinedDownloader(client)
        data = downloader.run(
            name, file_recipe.entries, key_recipe.keys
        )
        assert data == b"".join(chunks)
        total = len(file_recipe.entries)
        # MLE: identical plaintext -> identical ciphertext and key, so
        # unique pairs == distinct blocks, far below the chunk count.
        assert downloader.fetched < total
        assert downloader.aliases > 0
        assert downloader.decrypted == downloader.fetched == total - downloader.aliases

    def test_counters_on_unique_data(self, tmp_path):
        """All-unique data has no aliases; every chunk is fetched and
        decrypted exactly once."""
        deployment = make_deployment("bted", tmp_path, workers=2)
        rng_chunks = [bytes([i % 251, i // 251]) * 700 for i in range(90)]
        deployment.client.upload_chunks("uniq", rng_chunks)
        client = deployment.client
        file_recipe, key_recipe = client._fetch_recipes("uniq")
        downloader = PipelinedDownloader(client)
        data = downloader.run(
            "uniq", file_recipe.entries, key_recipe.keys
        )
        assert data == b"".join(rng_chunks)
        assert downloader.aliases == 0
        assert downloader.fetched == downloader.decrypted == len(rng_chunks)


class TestFailureHandling:
    def test_hard_fault_fails_fast_without_deadlock(self, tmp_path):
        deployment = make_deployment("bted", tmp_path)
        name, chunks = WORKLOAD[0]
        deployment.client.upload_chunks(name, chunks)

        # Re-point a pipelined client at the stored data, with every
        # provider call dropped.
        broken = TestFailureHandling._pipelined_twin(
            deployment, workers=3, client_batch_size=100
        )
        broken.provider = FaultyProvider(
            broken.provider, FaultPlan(drop_rate=1.0, seed=9)
        )
        started = time.monotonic()
        with pytest.raises(InjectedFault):
            broken.download(name)
        assert time.monotonic() - started < 30.0
        for thread in threading.enumerate():
            if thread.name.startswith("ted-pipeline-decrypt"):
                thread.join(timeout=5.0)
        assert not any(
            t.is_alive()
            for t in threading.enumerate()
            if t.name.startswith("ted-pipeline-decrypt")
        )

    def test_failed_download_leaves_client_reusable(self, tmp_path):
        deployment, wrapper = _deploy_with_short_replies(
            tmp_path, workers=3
        )
        name, chunks = WORKLOAD[0]
        deployment.client.upload_chunks(name, chunks)
        wrapper.armed = True
        with pytest.raises(ValueError, match="provider returned"):
            deployment.client.download(name)
        wrapper.armed = False  # faults healed; same client object
        assert deployment.client.download(name) == b"".join(chunks)

    def test_empty_file_roundtrip(self, tmp_path):
        deployment = make_deployment("bted", tmp_path, workers=2)
        deployment.client.upload("empty", b"")
        assert deployment.client.download("empty") == b""

    @staticmethod
    def _pipelined_twin(deployment, *, workers, client_batch_size):
        from repro.tedstore.client import TedStoreClient

        base = deployment.client
        return TedStoreClient(
            base.key_manager,
            base.provider,
            master_key=base.master_key,
            profile=base.profile,
            sketch_width=base.sketch_width,
            batch_size=client_batch_size,
            workers=workers,
        )
