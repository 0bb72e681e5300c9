"""Differential tests: every restore scheduling ≡ the oracle (DESIGN.md §10).

The restore path promises byte-identical plaintext however its stages
are scheduled — inline at ``workers=1``, threaded at ``workers=4`` —
for every operating point, every storage layout, and under injected
faults. These tests store files through the
straight-line :class:`tests.harness.reference.ReferenceClient`, restore
them through it and through each scheduling, and compare; and prove the
path recovers from a provider crash mid-download over real TCP.
"""

import random

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import SHACTR
from repro.obs import tracing
from repro.tedstore.client import TedStoreClient
from repro.tedstore.faults import (
    FaultPlan,
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

from tests.harness.differential import (
    MODES,
    make_deployment,
    make_workload,
    run_workload,
)

_W = 2**14
_FAST_RETRY = dict(base_delay=0.01, multiplier=2.0, max_delay=0.1)

WORKLOAD = make_workload(files=2, chunks_per_file=700, seed=31)
FILE_NAMES = [name for name, _ in WORKLOAD]
EXPECTED = {name: b"".join(chunks) for name, chunks in WORKLOAD}


#: The schedulings under test: inline and threaded.
SCHEDULINGS = {
    "workers1": dict(workers=1),
    "workers4": dict(workers=4),
}


def client_twin(deployment, batch_size=120, **scheduling) -> TedStoreClient:
    """A real client over the oracle deployment's transports.

    The small ``batch_size`` makes every restore span several
    ``GetChunks`` batches.

    Downloads never touch the key manager, so pointing a second client
    at the same provider state isolates exactly the path under test.
    """
    base = deployment.client
    return TedStoreClient(
        base.key_manager,
        base.provider,
        master_key=base.master_key,
        profile=base.profile,
        sketch_width=base.width,
        batch_size=batch_size,
        **scheduling,
    )


def _stored_by_oracle(mode, directory, **kwargs):
    deployment = make_deployment(mode, directory, oracle=True, **kwargs)
    run_workload(deployment, WORKLOAD)
    deployment.close()
    return deployment


class TestByteIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_scheduling_matches_oracle_and_content(
        self, tmp_path, mode
    ):
        deployment = _stored_by_oracle(mode, tmp_path)
        for name in FILE_NAMES:
            assert deployment.client.download(name) == EXPECTED[name]
            for scheduling in SCHEDULINGS.values():
                twin = client_twin(deployment, **scheduling)
                assert twin.download(name) == EXPECTED[name]


class _RetryingProvider:
    """Minimal retry shim for in-process fault-injection tests.

    The real TCP transport retries idempotent calls through
    ``RetryPolicy``; local transports have no wire layer, so close/drop
    faults would otherwise surface directly. Reads are idempotent, so a
    bounded retry here models the production behavior.
    """

    def __init__(self, inner, attempts: int = 8) -> None:
        self._inner = inner
        self._attempts = attempts
        self.retries = 0

    def get_chunks(self, request):
        return self._retry(self._inner.get_chunks, request)

    def get_recipes(self, request):
        return self._retry(self._inner.get_recipes, request)

    def _retry(self, call, request):
        for attempt in range(self._attempts):
            try:
                return call(request)
            except InjectedFault:
                self.retries += 1
        return call(request)  # last try surfaces the error

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDownloadUnderFaults:
    def test_delay_faults_do_not_change_bytes(self, tmp_path):
        """Injected delays jitter worker interleavings, never output."""
        delay_plan = FaultPlan(
            delay_rate=0.3, delay_seconds=0.002, seed=17
        )
        deployment = _stored_by_oracle("fted", tmp_path)
        delayed = FaultyProvider(deployment.client.provider, delay_plan)
        for scheduling in SCHEDULINGS.values():
            twin = client_twin(deployment, **scheduling)
            twin.provider = delayed
            for name in FILE_NAMES:
                assert twin.download(name) == EXPECTED[name]
        assert delayed.fault_counters["delays"] > 0

    def test_close_faults_recovered_by_retry(self, tmp_path):
        """Connection-close faults during fetches recover via retry and
        still restore byte-identical plaintext."""
        deployment = _stored_by_oracle("bted", tmp_path)
        close_plan = FaultPlan(close_rate=0.2, seed=3)
        retrying = _RetryingProvider(
            FaultyProvider(deployment.client.provider, close_plan)
        )
        for scheduling in SCHEDULINGS.values():
            twin = client_twin(deployment, **scheduling)
            twin.provider = retrying
            for name in FILE_NAMES:
                assert twin.download(name) == EXPECTED[name]
        assert retrying.retries > 0  # the faults really fired


class _KillAndRestartOnGet:
    """Provider wrapper that crashes+restarts the server mid-download."""

    def __init__(self, inner, restart, after_calls: int = 2) -> None:
        self._inner = inner
        self._restart = restart
        self._calls = 0
        self._after = after_calls
        self.fired = False

    def get_chunks(self, request):
        self._calls += 1
        if not self.fired and self._calls > self._after:
            self.fired = True
            self._restart()
        return self._inner.get_chunks(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestProviderCrashMidDownload:
    def test_pipelined_download_survives_provider_restart(self):
        """Kill the provider while the prefetcher has fetches in flight;
        the retry layer must recover and the restored bytes must be
        exact — no truncation, no reordering."""
        km_service = KeyManagerService(
            TedKeyManager(
                secret=b"restore-crash",
                blowup_factor=1.05,
                batch_size=500,
                sketch_width=_W,
                rng=random.Random(5),
            )
        )
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
        provider = _KillAndRestartOnGet(raw_provider, restart_provider)
        client = TedStoreClient(
            km,
            provider,
            profile=SHACTR,
            sketch_width=_W,
            batch_size=120,  # many GetChunks batches → crash mid-stream
            workers=3,
        )
        try:
            name, chunks = WORKLOAD[0]
            data = b"".join(chunks)
            client.upload_chunks(name, chunks)
            assert not provider.fired  # uploads don't tick the fuse
            restored = client.download(name)
            assert provider.fired  # the crash landed mid-download
            assert restored == data

            wire = raw_provider.wire_stats()
            assert wire["client_retries"] >= 1
            assert wire["client_reconnects"] >= 1
        finally:
            km.close()
            raw_provider.close()
            km_handle.stop()
            handles["provider"].stop()
