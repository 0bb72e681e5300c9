"""Upload path under faults and concurrency stress.

The client's consistency contract (DESIGN.md §10) must hold when the
world misbehaves: a provider crash mid-upload, and injected hard faults
that must surface promptly *as themselves* — the same exception type
whether the stages run inline or on threads — instead of hanging the
stage threads, and with nothing sent to a server once the call has
raised. (Delay faults are covered by the differential gate,
``test_pipeline_differential.py``.)
"""

import random
import threading
import time

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import SHACTR
from repro.obs import tracing
from repro.storage.dedup import FingerprintCache
from repro.tedstore.client import TedStoreClient
from repro.tedstore.faults import (
    FaultPlan,
    FaultyKeyManager,
    FaultyProvider,
    InjectedFault,
)
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    serve_key_manager,
    serve_provider,
)
from repro.tedstore.provider import ProviderService
from repro.tedstore.retry import RetryPolicy
from repro.traces.workload import unique_file

from tests.harness.differential import make_deployment, make_workload

_W = 2**14
_FAST_RETRY = dict(base_delay=0.01, multiplier=2.0, max_delay=0.1)

WORKLOAD = make_workload(files=2, chunks_per_file=800, seed=23)


@pytest.fixture
def recorder():
    """Install a fresh tracer + recorder, restore the old one afterwards."""
    previous = tracing.get_tracer()
    recorder = tracing.SpanRecorder()
    tracing.set_tracer(tracing.Tracer(recorder=recorder))
    yield recorder
    tracing.set_tracer(previous)


def _key_manager_service():
    return KeyManagerService(
        TedKeyManager(
            secret=b"pipeline-faults",
            blowup_factor=1.05,
            batch_size=500,
            sketch_width=_W,
            rng=random.Random(5),
        )
    )


class _KillAndRestartOnce:
    """Provider wrapper that crashes+restarts the server before one call."""

    def __init__(self, inner, restart, after_calls: int = 2) -> None:
        self._inner = inner
        self._restart = restart
        self._calls = 0
        self._after = after_calls
        self.fired = False

    def put_chunks(self, request):
        self._calls += 1
        if not self.fired and self._calls > self._after:
            self.fired = True
            self._restart()
        return self._inner.put_chunks(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestProviderCrashMidPipeline:
    def test_pipelined_upload_survives_provider_restart(self, recorder):
        """Kill the provider while the pipeline has stages in flight; the
        uploader thread's retries must recover without losing or
        duplicating a single chunk — and be visible as span events."""
        km_service = _key_manager_service()
        provider_service = ProviderService(in_memory=True)
        km_handle = serve_key_manager(km_service)
        prov_handle = serve_provider(provider_service)
        handles = {"provider": prov_handle}

        def restart_provider():
            port = handles["provider"].address[1]
            handles["provider"].kill()  # hard stop: connections die
            handles["provider"] = serve_provider(
                provider_service, port=port
            )

        km = RemoteKeyManager(km_handle.address)
        raw_provider = RemoteProvider(
            prov_handle.address,
            retry_policy=RetryPolicy(max_attempts=6, **_FAST_RETRY),
            data_connections=2,
        )
        provider = _KillAndRestartOnce(raw_provider, restart_provider)
        client = TedStoreClient(
            km,
            provider,
            profile=SHACTR,
            sketch_width=_W,
            batch_size=8,  # many small PUT batches → crash lands mid-stream
            workers=3,
            fingerprint_cache=FingerprintCache(capacity=4096),
        )
        try:
            data = unique_file(400_000)
            result = client.upload("crash-file", data)
            assert provider.fired  # the crash really happened mid-upload
            assert result.chunk_count > 0
            assert (
                result.stored_chunks + result.duplicate_chunks
                == result.chunk_count
            )
            assert client.download("crash-file") == data

            wire = raw_provider.wire_stats()
            assert wire["client_retries"] >= 1
            assert wire["client_reconnects"] >= 1

            # The recovery is visible in the trace: some rpc span under
            # this upload carries a wire.retry event.
            events = [
                name
                for span in recorder.spans()
                for name in span.event_names()
            ]
            assert "wire.retry" in events
            span_names = {span.name for span in recorder.spans()}
            assert "client.pipeline" in span_names
        finally:
            km.close()
            raw_provider.close()
            km_handle.stop()
            handles["provider"].stop()


class TestInjectedFaults:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_hard_fault_fails_fast_without_deadlock(self, tmp_path, workers):
        """A drop fault anywhere in the pipeline must surface promptly,
        as the fault itself — bounded queues and a dead stage must
        never leave the caller blocked."""
        drop_plan = FaultPlan(drop_rate=1.0, seed=1)
        deployment = make_deployment(
            "fted",
            tmp_path,
            workers=workers,
            client_batch_size=100,
            provider_wrap=lambda t: FaultyProvider(t, drop_plan),
        )
        started = time.monotonic()
        with pytest.raises(InjectedFault):
            deployment.client.upload_chunks("doomed", WORKLOAD[0][1])
        assert time.monotonic() - started < 30.0
        # All pipeline threads unwound with the failure.
        lingering = [
            t
            for t in threading.enumerate()
            if t.name.startswith("ted-pipeline")
        ]
        for thread in lingering:
            thread.join(timeout=5.0)
        assert not any(
            t.is_alive()
            for t in threading.enumerate()
            if t.name.startswith("ted-pipeline")
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keygen_fault_fails_fast(self, tmp_path, workers):
        """Same, when the key-manager stage dies instead of the uploader."""
        drop_plan = FaultPlan(drop_rate=1.0, seed=2)
        deployment = make_deployment(
            "fted",
            tmp_path,
            workers=workers,
            key_manager_wrap=lambda t: FaultyKeyManager(t, drop_plan),
        )
        with pytest.raises(InjectedFault):
            deployment.client.upload_chunks("doomed", WORKLOAD[0][1])

    def test_failed_upload_leaves_client_reusable(self, tmp_path):
        """After a pipeline failure the same client must complete the
        next upload (fresh uploader instance, no poisoned state)."""
        plans = iter(
            [FaultPlan(drop_rate=1.0, seed=3), FaultPlan(seed=3)]
        )

        class _SwappableFaults:
            def __init__(self, inner):
                self.wrapped = FaultyProvider(inner, next(plans))
                self._inner = inner

            def rearm(self):
                self.wrapped = FaultyProvider(self._inner, next(plans))

            def __getattr__(self, name):
                return getattr(self.wrapped, name)

        holder = {}

        def wrap(t):
            holder["provider"] = _SwappableFaults(t)
            return holder["provider"]

        deployment = make_deployment(
            "fted", tmp_path, workers=3, provider_wrap=wrap
        )
        name, chunks = WORKLOAD[0]
        with pytest.raises(InjectedFault):
            deployment.client.upload_chunks(name, chunks)
        holder["provider"].rearm()  # same client, faults healed
        result = deployment.client.upload_chunks(name, chunks)
        assert (
            result.stored_chunks + result.duplicate_chunks
            == result.chunk_count
        )
        assert deployment.client.download(name) == b"".join(chunks)


class _Counting:
    """Transport wrapper that counts calls per method; call number
    ``fail_at`` of ``fail_method`` raises ``boom`` instead of going out."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.fail_method = None
        self.fail_at = None
        self._lock = threading.Lock()
        self.calls = {}
        self.boom = RuntimeError("refused")

    def _call(self, method, request):
        with self._lock:
            count = self.calls[method] = self.calls.get(method, 0) + 1
        if method == self.fail_method and count == self.fail_at:
            raise self.boom
        return getattr(self._inner, method)(request)

    def keygen_batched(self, request):
        return self._call("keygen_batched", request)

    def put_chunks(self, request):
        return self._call("put_chunks", request)

    def get_chunks(self, request):
        return self._call("get_chunks", request)

    def snapshot(self):
        with self._lock:
            return dict(self.calls)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestNothingSentAfterFailure:
    """A failed threaded transfer joins its threads and goes quiet: no
    keygen, PUT or GET reaches a server once the call has raised."""

    @pytest.fixture
    def tcp_client(self):
        km_handle = serve_key_manager(_key_manager_service())
        prov_handle = serve_provider(ProviderService(in_memory=True))
        km = RemoteKeyManager(km_handle.address)
        provider = RemoteProvider(prov_handle.address, data_connections=2)
        counted_km = _Counting(km)
        counted_provider = _Counting(provider)
        client = TedStoreClient(
            counted_km,
            counted_provider,
            profile=SHACTR,
            sketch_width=_W,
            batch_size=50,  # 16 keygen/PUT batches per file
            workers=3,
        )
        try:
            yield client, counted_km, counted_provider
        finally:
            km.close()
            provider.close()
            km_handle.stop()
            prov_handle.stop()

    @staticmethod
    def _assert_quiet(*transports):
        before = [t.snapshot() for t in transports]
        time.sleep(0.2)
        assert [t.snapshot() for t in transports] == before
        assert not [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("ted-pipeline")
        ]

    def test_failed_upload_sends_nothing_after(self, tcp_client):
        client, km, provider = tcp_client
        name, chunks = WORKLOAD[0]
        provider.fail_method, provider.fail_at = "put_chunks", 2
        with pytest.raises(RuntimeError) as excinfo:
            client.upload_chunks(name, chunks)
        assert excinfo.value is provider.boom
        self._assert_quiet(km, provider)
        assert provider.snapshot()["put_chunks"] == 2

        client.upload_chunks(name, chunks)
        assert client.download(name) == b"".join(chunks)

    def test_failed_restore_sends_nothing_after(self, tcp_client):
        client, km, provider = tcp_client
        name, chunks = WORKLOAD[1]
        client.upload_chunks(name, chunks)
        provider.fail_method, provider.fail_at = "get_chunks", 2
        with pytest.raises(RuntimeError) as excinfo:
            client.download(name)
        assert excinfo.value is provider.boom
        self._assert_quiet(km, provider)
        assert provider.snapshot()["get_chunks"] == 2

        assert client.download(name) == b"".join(chunks)
