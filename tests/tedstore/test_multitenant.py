"""Multi-tenant provider: HELLO handshake, isolation, quotas, bugfixes.

Covers the DESIGN.md §13 surface end to end over the real TCP transport:
concurrent tenants under the per-tenant/striped locks, recipe namespace
isolation, quota rejection before any storage mutation, per-tenant auth,
the typed ``MSG_NOT_FOUND`` reply, the corrupt-recipe-blob quarantine,
re-entrant ``close()``, and a peer that rejects HELLO.
"""

import errno
import hashlib
import random
import sys
import threading

import pytest

from repro.storage.kvstore import KVStore
from repro.tedstore import messages as m
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteProvider,
    _Connection,
    serve_provider,
)
from repro.tedstore.provider import (
    AuthenticationError,
    ProviderService,
    QuotaExceededError,
    _decode_recipes,
    _encode_recipes,
)
from repro.tedstore.retry import RetryPolicy
from repro.core.ted import TedKeyManager
from tests.harness.rejecting_peer import RejectingPeer

_W = 2**14
_FAST_RETRY = dict(base_delay=0.01, max_delay=0.05, deadline=5.0)

TENANTS = ("t-alpha", "t-bravo", "t-charlie", "t-delta")


def _tenant_client(address, tenant, key_service, transports):
    provider = RemoteProvider(address, tenant=tenant)
    transports.append(provider)
    return TedStoreClient(
        key_service,
        provider,
        master_key=bytes([sum(tenant.encode()) % 251 + 1]) * 32,
        profile=__import__(
            "repro.crypto.cipher", fromlist=["SHACTR"]
        ).SHACTR,
        sketch_width=_W,
        batch_size=200,
    )


class TestConcurrentTenantsOverTcp:
    def test_four_tenants_upload_simultaneously(self, tmp_path):
        """≥4 tenants over real sockets: per-tenant counters stay exact
        and no tenant can see another's recipes."""
        from repro.tedstore.inprocess import LocalKeyManager

        service = ProviderService(directory=tmp_path, cross_user_dedup=True)
        handle = serve_provider(service)
        transports = []
        # Shared + private blocks so cross-tenant dedup has work to do.
        rng = random.Random(5)
        shared = [rng.randbytes(1500) for _ in range(10)]
        datasets = {}
        for tenant in TENANTS:
            trng = random.Random(tenant)
            private = [trng.randbytes(1500) for _ in range(4)]
            pool = shared + private
            datasets[tenant] = b"".join(
                pool[trng.randrange(len(pool))] for _ in range(120)
            )
        errors = []

        def worker(tenant):
            try:
                key_service = LocalKeyManager(
                    KeyManagerService(
                        TedKeyManager(secret=tenant.encode(), t=5,
                                      sketch_width=_W)
                    )
                )
                client = _tenant_client(
                    handle.address, tenant, key_service, transports
                )
                client.upload(f"{tenant}-doc", datasets[tenant])
                assert client.download(f"{tenant}-doc") == datasets[tenant]
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in TENANTS
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors

            # Per-tenant accounting: every offered chunk is either stored
            # or a duplicate, and each tenant uploaded exactly one file.
            for tenant in TENANTS:
                stats = dict(service.tenant_stats(tenant))
                assert stats["files"] == 1
                assert stats["logical_chunks"] > 0
                assert (
                    stats["stored_chunks"] + stats["duplicate_chunks"]
                    == stats["logical_chunks"]
                )
                assert stats["logical_bytes"] == len(datasets[tenant])

            # The aggregate view sums the tenants (plus eager default).
            total = dict(service.stats())
            assert total["files"] == len(TENANTS)
            assert total["tenants"] == len(TENANTS) + 1

            # No cross-tenant recipe visibility, whatever the dedup mode.
            peek = RemoteProvider(handle.address, tenant=TENANTS[0])
            transports.append(peek)
            with pytest.raises(FileNotFoundError):
                peek.get_recipes(
                    m.GetRecipes(file_name=f"{TENANTS[1]}-doc")
                )
        finally:
            for transport in transports:
                transport.close()
            handle.stop()
            service.close()

    def test_typed_not_found_over_wire(self, tmp_path):
        service = ProviderService(in_memory=True)
        handle = serve_provider(service)
        provider = RemoteProvider(handle.address, tenant="t-alpha")
        try:
            with pytest.raises(FileNotFoundError):
                provider.get_recipes(m.GetRecipes(file_name="nope"))
            with pytest.raises(KeyError) as excinfo:
                provider.get_chunks(m.GetChunks(fingerprints=[b"absent"]))
            # The old path leaked KeyError repr quotes ("b'absent'") via
            # MSG_ERROR; the typed reply carries the clean message.
            assert "not found:" not in str(excinfo.value)
            # The connection survives a typed miss (stream still in sync).
            provider.put_chunks(
                m.PutChunks(chunks=[(b"fp1", b"payload")])
            )
            got = provider.get_chunks(m.GetChunks(fingerprints=[b"fp1"]))
            assert got.chunks == [b"payload"]
        finally:
            provider.close()
            handle.stop()
            service.close()

    def test_hello_rebinds_after_reconnect(self, tmp_path):
        service = ProviderService(in_memory=True)
        handle = serve_provider(service)
        provider = RemoteProvider(
            handle.address,
            tenant="t-alpha",
            retry_policy=RetryPolicy(max_attempts=6, **_FAST_RETRY),
        )
        try:
            assert provider.hello_ok is not None
            assert provider.hello_ok.tenant == "t-alpha"
            provider.put_recipes(
                m.PutRecipes(
                    file_name="f", sealed_file_recipe=b"x",
                    sealed_key_recipe=b"y",
                )
            )
            # Kill every server-side socket; the next call reconnects and
            # must re-HELLO before the retried request is served.
            handle._server.close_active_connections()
            got = provider.get_recipes(m.GetRecipes(file_name="f"))
            assert got.sealed_file_recipe == b"x"
            assert dict(service.tenant_stats("t-alpha"))["files"] == 1
        finally:
            provider.close()
            handle.stop()
            service.close()


class TestQuotas:
    def test_byte_quota_rejected_before_mutation(self, tmp_path):
        service = ProviderService(
            directory=tmp_path, quota_bytes=1000, cross_user_dedup=True
        )
        transport = LocalProvider(service, tenant="t-alpha")
        service.tenant_stats("t-alpha")  # materialize the namespace
        before = dict(service.stats())
        with pytest.raises(QuotaExceededError):
            transport.put_chunks(
                m.PutChunks(chunks=[(b"f" * 32, b"x" * 2000)])
            )
        # Whole-batch rejection: counters, index, and containers untouched.
        assert dict(service.stats()) == before
        stats = dict(service.tenant_stats("t-alpha"))
        assert stats["logical_bytes"] == 0
        assert stats["stored_chunks"] == 0
        # Under-quota traffic still lands.
        response = transport.put_chunks(
            m.PutChunks(chunks=[(b"f" * 32, b"x" * 900)])
        )
        assert response.stored == 1
        service.close()

    def test_byte_quota_over_wire_is_remote_error(self, tmp_path):
        service = ProviderService(in_memory=True, quota_bytes=10)
        handle = serve_provider(service)
        provider = RemoteProvider(handle.address, tenant="t-alpha")
        try:
            with pytest.raises(RuntimeError, match="quota exceeded"):
                provider.put_chunks(
                    m.PutChunks(chunks=[(b"fp", b"z" * 100)])
                )
        finally:
            provider.close()
            handle.stop()
            service.close()

    def test_file_quota_limits_new_files_only(self):
        service = ProviderService(in_memory=True, quota_files=1)
        transport = LocalProvider(service, tenant="t-alpha")
        recipe = dict(sealed_file_recipe=b"a", sealed_key_recipe=b"b")
        transport.put_recipes(m.PutRecipes(file_name="one", **recipe))
        with pytest.raises(QuotaExceededError):
            transport.put_recipes(m.PutRecipes(file_name="two", **recipe))
        # Overwriting an existing file is not a new file.
        transport.put_recipes(m.PutRecipes(file_name="one", **recipe))
        assert dict(service.tenant_stats("t-alpha"))["files"] == 1
        service.close()

    def test_quotas_are_per_tenant(self):
        service = ProviderService(in_memory=True, quota_bytes=100)
        alpha = LocalProvider(service, tenant="t-alpha")
        bravo = LocalProvider(service, tenant="t-bravo")
        alpha.put_chunks(m.PutChunks(chunks=[(b"a", b"x" * 90)]))
        with pytest.raises(QuotaExceededError):
            alpha.put_chunks(m.PutChunks(chunks=[(b"b", b"x" * 20)]))
        # Bravo has its own budget.
        response = bravo.put_chunks(m.PutChunks(chunks=[(b"c", b"x" * 90)]))
        assert response.stored == 1
        service.close()


class TestAuthAndValidation:
    def test_auth_token_enforced_over_wire(self):
        service = ProviderService(
            in_memory=True, auth_tokens={"t-alpha": b"sekrit"}
        )
        handle = serve_provider(service)
        try:
            with pytest.raises(RuntimeError, match="authentication failed"):
                RemoteProvider(
                    handle.address, tenant="t-alpha", auth_token=b"wrong"
                )
            provider = RemoteProvider(
                handle.address, tenant="t-alpha", auth_token=b"sekrit"
            )
            assert provider.hello_ok.tenant == "t-alpha"
            provider.close()
            # Unlisted tenants connect without a token.
            other = RemoteProvider(handle.address, tenant="t-bravo")
            assert other.hello_ok.tenant == "t-bravo"
            other.close()
        finally:
            handle.stop()
            service.close()

    def test_local_transport_authenticates_too(self):
        service = ProviderService(
            in_memory=True, auth_tokens={"t-alpha": b"sekrit"}
        )
        with pytest.raises(AuthenticationError):
            LocalProvider(service, tenant="t-alpha", auth_token=b"no")
        LocalProvider(service, tenant="t-alpha", auth_token=b"sekrit")
        service.close()

    @pytest.mark.parametrize(
        "bad", ["", "../escape", "a/b", ".hidden", "x" * 65, "sp ace"]
    )
    def test_tenant_ids_must_be_path_safe(self, bad):
        service = ProviderService(in_memory=True)
        with pytest.raises(ValueError):
            service.validate_tenant(bad)
        with pytest.raises(ValueError):
            service.handle_put_chunks(m.PutChunks(chunks=[]), tenant=bad)
        service.close()


class TestRecipeDecodeBugfix:
    def test_truncated_blob_raises(self):
        blob = _encode_recipes(b"file-recipe", b"key-recipe")
        assert _decode_recipes(blob) == (b"file-recipe", b"key-recipe")
        # Chop bytes off: the uvarint length now overruns the blob. The
        # old decoder silently returned a short file recipe and an empty
        # key recipe — now it must refuse.
        with pytest.raises(ValueError, match="corrupt recipe blob"):
            _decode_recipes(blob[:6])

    def test_startup_quarantines_corrupt_blob(self, tmp_path, capsys):
        service = ProviderService(directory=tmp_path)
        transport = LocalProvider(service)
        transport.put_recipes(
            m.PutRecipes(
                file_name="good", sealed_file_recipe=b"F" * 40,
                sealed_key_recipe=b"K" * 40,
            )
        )
        service.close()
        # Corrupt the durable blob for one file out-of-band.
        store = KVStore(tmp_path / "recipes")
        good = store.get(b"good")
        store.put(b"bad", good[: len(good) // 4])
        store.close()

        reopened = ProviderService(directory=tmp_path)
        err = capsys.readouterr().err
        assert "quarantined corrupt recipe blob" in err
        assert "'bad'" in err
        # The good recipe still serves; the bad one is a loud miss, not
        # silently wrong bytes.
        got = reopened.handle_get_recipes(m.GetRecipes(file_name="good"))
        assert got.sealed_file_recipe == b"F" * 40
        with pytest.raises(FileNotFoundError):
            reopened.handle_get_recipes(m.GetRecipes(file_name="bad"))
        stats = dict(reopened.tenant_stats())
        assert stats["quarantined_recipes"] == 1
        reopened.close()


class TestRecipeWriteOrderBugfix:
    @staticmethod
    def _put(service, name, version):
        service.handle_put_recipes(
            m.PutRecipes(
                file_name=name,
                sealed_file_recipe=b"F" + version,
                sealed_key_recipe=b"K" + version,
            ),
            tenant="a",
        )

    @staticmethod
    def _get(service, name):
        got = service.handle_get_recipes(m.GetRecipes(file_name=name), "a")
        return got.sealed_file_recipe, got.sealed_key_recipe

    def test_failed_durable_write_is_not_served(self, tmp_path, monkeypatch):
        """A recipe PUT whose durable write fails changes nothing that is
        served: a new file stays absent, an overwrite keeps the old
        version — the same view a restart would give."""
        service = ProviderService(directory=tmp_path)
        self._put(service, "old", b"1")
        recipe_store = service._tenant("a").recipe_store

        def no_space(key, value):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(recipe_store, "put", no_space)
        with pytest.raises(OSError):
            self._put(service, "new", b"1")
        with pytest.raises(OSError):
            self._put(service, "old", b"2")
        monkeypatch.undo()
        for provider in (service, None):
            if provider is None:
                service.close()
                provider = ProviderService(directory=tmp_path)
            with pytest.raises(FileNotFoundError):
                self._get(provider, "new")
            assert self._get(provider, "old") == (b"F1", b"K1")
            assert dict(provider.tenant_stats("a"))["files"] == 1
        provider.close()


class TestPartitionedConcurrentGets:
    def test_one_tenant_concurrent_gets_return_exact_bytes(self, tmp_path):
        """GETs take no tenant lock: with cross-user dedup off, one
        tenant's readers race its own writer on the private engine and
        still get exact bytes."""
        service = ProviderService(
            directory=tmp_path, container_bytes=4096, cross_user_dedup=False
        )
        chunks = [
            hashlib.sha256(i.to_bytes(4, "big")).digest() * (1 + i % 5)
            for i in range(400)
        ]
        fps = [hashlib.sha256(c).digest() for c in chunks]
        service.handle_put_chunks(
            m.PutChunks(chunks=list(zip(fps[:40], chunks[:40]))), "t-alpha"
        )
        stored = 40
        done = threading.Event()
        errors = []
        reads = []

        def writer():
            nonlocal stored
            try:
                for lo in range(40, len(chunks), 8):
                    batch = list(zip(fps[lo : lo + 8], chunks[lo : lo + 8]))
                    service.handle_put_chunks(
                        m.PutChunks(chunks=batch), "t-alpha"
                    )
                    stored = lo + len(batch)
            except Exception as exc:
                errors.append(exc)
            finally:
                done.set()

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not done.is_set():
                    ids = [rng.randrange(stored) for _ in range(16)]
                    got = service.handle_get_chunks(
                        m.GetChunks(fingerprints=[fps[i] for i in ids]),
                        "t-alpha",
                    )
                    assert got.chunks == [chunks[i] for i in ids]
                    reads.append(len(ids))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,)) for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sum(reads) > 0
        service.close()


class TestCloseSemantics:
    def test_close_is_reentrant(self, tmp_path):
        service = ProviderService(directory=tmp_path, scrub_interval=60.0)
        service.close()
        service.close()  # second call is a no-op, not an error

    def test_scrubber_stopped_even_if_engine_close_raises(self, tmp_path):
        service = ProviderService(directory=tmp_path, scrub_interval=60.0)
        scrubber = service.scrubber
        assert scrubber is not None

        def boom():
            raise OSError("disk fell out")

        service.engine.close = boom
        with pytest.raises(OSError, match="disk fell out"):
            service.close()
        # The scrubber is stopped and joined despite the close failure.
        assert scrubber._thread is None
        assert scrubber._stop.is_set()
        # And close() stays re-entrant after a failed sweep.
        service.close()

    def test_requests_after_close_fail_cleanly(self):
        service = ProviderService(in_memory=True)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.handle_put_chunks(
                m.PutChunks(chunks=[]), tenant="t-new"
            )


class TestPartitionedFlush:
    def test_default_engine_flushes_under_its_tenant_lock(self, tmp_path):
        """Partitioned mode: the default tenant's engine is the service's
        own, and its chunk requests hold the tenant lock — so must the
        flush that seals it."""
        service = ProviderService(directory=tmp_path, cross_user_dedup=False)
        service.handle_put_chunks(m.PutChunks(chunks=[(b"f" * 32, b"x")]))
        default_lock = service._tenant("default").lock
        held = []
        inner_flush = service.engine.flush

        def recording_flush():
            held.append(default_lock.locked())
            inner_flush()

        service.engine.flush = recording_flush
        service.flush()
        assert held == [True]
        service.close()


class TestHelloHandshake:
    @pytest.mark.parametrize("tenant", ["default", "t-alpha"])
    def test_rejected_hello_fails(self, tenant):
        """One wire version: a peer that does not take HELLO is an
        error the caller sees, for the default tenant too."""
        with RejectingPeer() as peer:
            with pytest.raises(RuntimeError, match="tenant handshake"):
                _Connection(
                    peer.address,
                    retry_policy=RetryPolicy(max_attempts=2, **_FAST_RETRY),
                    entity="provider",
                    hello=m.Hello(tenant=tenant, auth_token=b"tok"),
                )
            assert peer.frames == [m.MSG_HELLO]

    def test_new_server_acks_hello(self):
        service = ProviderService(in_memory=True)
        handle = serve_provider(service)
        try:
            conn = _Connection(
                handle.address,
                entity="provider",
                hello=m.Hello(tenant="t-alpha", auth_token=b""),
            )
            try:
                assert conn.hello_ok is not None
                assert conn.hello_ok.tenant == "t-alpha"
                assert conn.hello_ok.cross_user_dedup is True
            finally:
                conn.close()
        finally:
            handle.stop()
            service.close()
