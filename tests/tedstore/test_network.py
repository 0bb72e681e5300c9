"""TCP deployment: framing over real sockets, concurrency, errors."""

import random
import threading

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import SHACTR
from repro.tedstore.client import TedStoreClient
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.messages import (
    BatchedKeyGenRequest,
    GetChunks,
    KeyGenRequest,
)
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    serve_key_manager,
    serve_provider,
)
from repro.tedstore.provider import ProviderService
from repro.traces.workload import unique_file

_W = 2**14


@pytest.fixture
def stack():
    """A running key-manager + provider pair with client factory."""
    key_manager = KeyManagerService(
        TedKeyManager(
            secret=b"net-secret",
            blowup_factor=1.05,
            batch_size=500,
            sketch_width=_W,
            rng=random.Random(8),
        )
    )
    provider = ProviderService(in_memory=True)
    km_handle = serve_key_manager(key_manager)
    prov_handle = serve_provider(provider)
    transports = []

    def make_client(master_key=b"\x03" * 32):
        km = RemoteKeyManager(km_handle.address)
        prov = RemoteProvider(prov_handle.address)
        transports.extend([km, prov])
        return TedStoreClient(
            km,
            prov,
            master_key=master_key,
            profile=SHACTR,
            sketch_width=_W,
            batch_size=200,
        )

    yield make_client
    for transport in transports:
        transport.close()
    km_handle.stop()
    prov_handle.stop()


class TestTcpRoundTrip:
    def test_upload_download(self, stack):
        client = stack()
        data = unique_file(80_000)
        client.upload("net-file", data)
        assert client.download("net-file") == data

    def test_keygen_over_tcp(self, stack):
        client = stack()
        response = client.key_manager.keygen(
            KeyGenRequest(hash_vectors=[[1, 2, 3, 4]])
        )
        assert len(response.seeds) == 1

    def test_out_of_range_short_hash_is_an_error_reply(self):
        """A keygen batch indexing past the sketch is refused whole: an
        error reply, the sketch untouched, the connection still good."""
        service = KeyManagerService(
            TedKeyManager(secret=b"net-secret", t=5, sketch_width=_W)
        )
        handle = serve_key_manager(service)
        remote = RemoteKeyManager(handle.address)
        try:
            with pytest.raises(RuntimeError, match="short hash out of range"):
                remote.keygen_batched(
                    BatchedKeyGenRequest(
                        sequence=1,
                        hash_vectors=[[1, 2, 3, 4], [_W, 1, 2, 3]],
                    )
                )
            assert service.key_manager.sketch.total == 0
            response = remote.keygen_batched(
                BatchedKeyGenRequest(sequence=2, hash_vectors=[[1, 2, 3, 4]])
            )
            assert len(response.seeds) == 1
            assert service.key_manager.sketch.total == 1
            assert remote.wire_stats()["client_reconnects"] == 0
        finally:
            remote.close()
            handle.stop()

    def test_stats_over_tcp(self, stack):
        client = stack()
        client.upload("f", unique_file(10_000))
        km_stats = dict(client.key_manager.stats())
        prov_stats = dict(client.provider.stats())
        assert km_stats["requests"] > 0
        assert prov_stats["unique_chunks"] > 0

    def test_wire_counters_ride_the_stats_message(self, stack):
        client = stack()
        client.upload("f", unique_file(10_000))
        prov_stats = dict(client.provider.stats())
        assert prov_stats["client_retries"] == 0  # healthy path
        assert prov_stats["client_calls"] > 0
        assert prov_stats["server_connections"] >= 1
        km_stats = dict(client.key_manager.stats())
        assert km_stats["client_reconnects"] == 0

    def test_remote_error_propagates(self, stack):
        # A missing chunk is a typed MSG_NOT_FOUND reply, raised locally
        # as KeyError (not a RuntimeError server fault).
        client = stack()
        with pytest.raises(KeyError, match="missing"):
            client.provider.get_chunks(GetChunks(fingerprints=[b"missing"]))

    def test_connection_survives_error(self, stack):
        client = stack()
        with pytest.raises(KeyError):
            client.provider.get_chunks(GetChunks(fingerprints=[b"missing"]))
        # Same connection continues to work.
        data = unique_file(10_000)
        client.upload("after-error", data)
        assert client.download("after-error") == data


class TestConcurrency:
    def test_multiple_clients_share_backend(self, stack):
        clients = [stack(master_key=bytes([i + 1]) * 32) for i in range(3)]
        datasets = [unique_file(30_000, client_id=i) for i in range(3)]
        errors = []

        def worker(i):
            try:
                clients[i].upload(f"c{i}", datasets[i])
                assert clients[i].download(f"c{i}") == datasets[i]
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_clients_cannot_read_each_others_files(self, stack):
        alice = stack(master_key=b"\x0a" * 32)
        bob = stack(master_key=b"\x0b" * 32)
        alice.upload("alice-file", unique_file(10_000))
        with pytest.raises(ValueError):
            bob.download("alice-file")


# -- heartbeats (DESIGN.md §17) ----------------------------------------------


class TestHeartbeat:
    def test_probe_endpoint_names_role_and_epoch(self, stack):
        from repro.tedstore.network import probe_endpoint

        service = ProviderService(in_memory=True)
        handle = serve_provider(service, shard_id=4, ring_epoch=7)
        try:
            pong = probe_endpoint(handle.address)
            assert pong.role == "provider"
            assert pong.shard == 4  # the failure domain this port serves
            assert pong.epoch == 7
        finally:
            handle.stop()
            service.close()
        km_handle = serve_key_manager(KeyManagerService())
        try:
            km_pong = probe_endpoint(km_handle.address)
            assert km_pong.role == "keymanager"
            assert km_pong.shard == -1  # unsharded: the whole key space
        finally:
            km_handle.stop()

    def test_probe_endpoint_raises_on_dead_port(self):
        import socket as socket_module

        from repro.tedstore.network import probe_endpoint

        with socket_module.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            address = sock.getsockname()
        with pytest.raises(OSError):
            probe_endpoint(address, timeout=0.5)

    def test_ping_rides_the_pooled_connection(self, stack):
        client = stack()
        pong = client.provider.ping()
        assert pong.role == "provider"
        assert client.key_manager.ping().role == "keymanager"

    def test_parse_endpoint(self):
        from repro.tedstore.network import parse_endpoint

        assert parse_endpoint("10.1.2.3:7000") == ("10.1.2.3", 7000)
        assert parse_endpoint(":7000") == ("127.0.0.1", 7000)
        for bad in ("nohost", "h:", "h:notaport"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)


# -- handshake failure must not leak sockets (DESIGN.md §13/§17) --------------


def _crash_mid_hello_listener(port: int, crashes: int):
    """A listener that accepts ``crashes`` connections and severs each
    one mid-HELLO (reads a little, closes without replying)."""
    import socket as socket_module

    listener = socket_module.socket()
    listener.setsockopt(
        socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
    )
    listener.bind(("127.0.0.1", port))
    listener.listen(crashes)
    done = threading.Event()

    def run():
        for _ in range(crashes):
            try:
                conn, _addr = listener.accept()
            except OSError:
                break
            try:
                conn.settimeout(2.0)
                conn.recv(16)  # the client got as far as sending HELLO
            except OSError:
                pass
            conn.close()
        listener.close()
        done.set()

    threading.Thread(target=run, daemon=True).start()
    return listener, done


class TestHandshakeCrash:
    def test_failed_handshakes_leak_no_sockets(self):
        import os

        from repro.tedstore.messages import Hello
        from repro.tedstore.network import _Connection

        before = len(os.listdir("/proc/self/fd"))
        listener, done = _crash_mid_hello_listener(0, crashes=6)
        address = listener.getsockname()
        for _ in range(6):
            with pytest.raises((ConnectionError, OSError)):
                _Connection(address, hello=Hello(tenant="acme"))
        done.wait(timeout=5.0)  # the crasher closes its listener too
        after = len(os.listdir("/proc/self/fd"))
        assert after == before  # every half-open socket was closed

    def test_reconnect_after_mid_hello_crash_rebinds_tenant(self, tmp_path):
        """Kill the server mid-HELLO on reconnect; the next attempt must
        re-handshake so the tenant-scoped op still lands in the right
        namespace (the leaked-socket bug skipped the rebind)."""
        from repro.tedstore.messages import PutChunks
        from repro.tedstore.retry import RetryPolicy

        service = ProviderService(in_memory=True)
        handle = serve_provider(service)
        port = handle.address[1]
        provider = RemoteProvider(
            handle.address,
            tenant="acme",
            retry_policy=RetryPolicy(
                max_attempts=10, base_delay=0.05, max_delay=0.2, jitter=0.0
            ),
        )
        try:
            provider.put_chunks(PutChunks(chunks=[(b"fp1", b"one")]))
            handle.stop()  # the server dies under an idle client

            # Next on this port: a crasher that severs the reconnect's
            # HELLO, then a healthy server again.
            _listener, crash_done = _crash_mid_hello_listener(
                port, crashes=1
            )

            def revive():
                crash_done.wait(timeout=5.0)
                _revived.append(serve_provider(service, port=port))

            _revived = []
            reviver = threading.Thread(target=revive, daemon=True)
            reviver.start()

            provider.put_chunks(PutChunks(chunks=[(b"fp2", b"two")]))
            reply = provider.get_chunks(GetChunks(fingerprints=[b"fp1", b"fp2"]))
            assert reply.chunks == [b"one", b"two"]  # same tenant namespace
            assert provider.wire_stats()["client_reconnects"] >= 1
        finally:
            provider.close()
            for revived in _revived:
                revived.stop()
            service.close()
