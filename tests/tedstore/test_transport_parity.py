"""In-process vs network transport parity for the keygen batching contract.

Historically the in-process transport forwarded keygen calls with no
ordering discipline while the TCP transport serialized them over one
connection — so pipelined clients behaved differently (and the sketch
accumulated different state) depending on transport. The contract is now
explicit (DESIGN.md §10): one batch in flight per transport, submission
order preserved, sequence regressions rejected, retries of the last
sequence accepted. These tests drive the same call sequences through
``LocalKeyManager`` and ``RemoteKeyManager`` and require identical
observable behaviour — seeds, ``current_t``, sketch state, and error
cases alike.
"""

import random
import threading

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.murmur3 import short_hashes
from repro.storage.wal import WriteAheadLog
from repro.tedstore import messages as m
from repro.tedstore.inprocess import LocalKeyManager
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.km_state import KeyManagerStateStore, _decode_batch
from repro.tedstore.messages import (
    BatchedKeyGenRequest,
    BatchedKeyGenResponse,
    KeyGenRequest,
)
from repro.tedstore.network import RemoteKeyManager, serve_key_manager

_W = 2**14


def _service(state_store=None):
    return KeyManagerService(
        TedKeyManager(
            secret=b"parity",
            blowup_factor=1.05,
            batch_size=200,
            sketch_width=_W,
            rng=random.Random(11),
        ),
        state_store=state_store,
    )


def _vectors(count, seed):
    rng = random.Random(seed)
    return [
        short_hashes(rng.randbytes(32), 4, _W) for _ in range(count)
    ]


def _sketch_state(service):
    ted = service.key_manager
    return (
        ted.sketch._counters.tobytes(),
        ted.sketch.total,
        ted.t,
        ted.stats.requests,
    )


@pytest.fixture
def transports():
    """One Local and one Remote transport over twin services."""
    local_service = _service()
    remote_service = _service()
    handle = serve_key_manager(remote_service)
    local = LocalKeyManager(local_service)
    remote = RemoteKeyManager(handle.address)
    yield local, remote, local_service, remote_service
    remote.close()
    handle.stop()


class TestBatchedParity:
    def test_same_stream_same_seeds_and_state(self, transports):
        local, remote, local_service, remote_service = transports
        # Duplicate-heavy batches across several server-side retune
        # boundaries (batch_size=200, 3×150 chunks with repeats).
        batches = [
            _vectors(150, seed) + _vectors(50, 0) for seed in range(3)
        ]
        for sequence, vectors in enumerate(batches):
            request = BatchedKeyGenRequest(
                sequence=sequence, hash_vectors=vectors
            )
            local_reply = local.keygen_batched(request)
            remote_reply = remote.keygen_batched(request)
            assert local_reply.sequence == remote_reply.sequence
            assert local_reply.seeds == remote_reply.seeds
            assert local_reply.current_t == remote_reply.current_t
        assert _sketch_state(local_service) == _sketch_state(
            remote_service
        )

    def test_plain_and_batched_interleave_identically(self, transports):
        local, remote, *_ = transports
        plain = KeyGenRequest(hash_vectors=_vectors(40, 7))
        batched = BatchedKeyGenRequest(
            sequence=0, hash_vectors=_vectors(40, 8)
        )
        assert local.keygen(plain).seeds == remote.keygen(plain).seeds
        assert (
            local.keygen_batched(batched).seeds
            == remote.keygen_batched(batched).seeds
        )

    def test_sequence_regression_rejected_on_both(self, transports):
        local, remote, *_ = transports
        for sequence in (1, 2):
            request = BatchedKeyGenRequest(
                sequence=sequence, hash_vectors=_vectors(5, sequence)
            )
            local.keygen_batched(request)
            remote.keygen_batched(request)
        stale = BatchedKeyGenRequest(
            sequence=1, hash_vectors=_vectors(5, 99)
        )
        with pytest.raises(ValueError, match="stale keygen batch"):
            local.keygen_batched(stale)
        with pytest.raises(RuntimeError, match="stale keygen batch"):
            remote.keygen_batched(stale)

    def test_retry_of_last_sequence_accepted_on_both(self, transports):
        """A retried batch (same sequence) is served, not rejected — the
        fail-safe direction: replays only over-count the sketch."""
        local, remote, local_service, remote_service = transports
        request = BatchedKeyGenRequest(
            sequence=3, hash_vectors=_vectors(10, 1)
        )
        first_local = local.keygen_batched(request)
        retry_local = local.keygen_batched(request)
        first_remote = remote.keygen_batched(request)
        retry_remote = remote.keygen_batched(request)
        assert len(retry_local.seeds) == len(first_local.seeds) == 10
        assert len(retry_remote.seeds) == len(first_remote.seeds) == 10
        # Both sides double-counted identically.
        assert _sketch_state(local_service) == _sketch_state(
            remote_service
        )

    def test_new_stream_resets_at_sequence_zero_on_both(self, transports):
        local, remote, *_ = transports
        for transport in (local, remote):
            transport.keygen_batched(
                BatchedKeyGenRequest(
                    sequence=5, hash_vectors=_vectors(3, 1)
                )
            )
            # A fresh upload starts a new stream at 0 — always accepted.
            reply = transport.keygen_batched(
                BatchedKeyGenRequest(
                    sequence=0, hash_vectors=_vectors(3, 2)
                )
            )
            assert reply.sequence == 0


class TestStreamsAreIndependent:
    """Two clients behind one host must not trip each other's floor.

    The floor used to be keyed by client id — the peer *host* over TCP,
    ``"local"`` in process — so a second uploader on the same machine
    was rejected ("stale keygen batch: sequence 1 after 4") as soon as
    either upload needed a second batch.
    """

    def _upload_concurrently(self, transports):
        """One uploader thread per key-manager transport, started together."""
        from repro.crypto.cipher import SHACTR
        from repro.tedstore.client import TedStoreClient
        from repro.tedstore.inprocess import LocalProvider
        from repro.tedstore.provider import ProviderService

        provider = ProviderService(in_memory=True)
        errors = []
        barrier = threading.Barrier(len(transports))

        def uploader(worker, transport):
            client = TedStoreClient(
                transport,
                LocalProvider(provider),
                profile=SHACTR,
                sketch_width=_W,
                workers=2,
                batch_size=64,
            )
            rng = random.Random(worker)
            chunks = [rng.randbytes(64) for _ in range(768)]
            try:
                barrier.wait()
                client.upload_chunks(f"file-{worker}", chunks)
                assert client.download(f"file-{worker}") == b"".join(chunks)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=uploader, args=item)
            for item in enumerate(transports)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

    def test_two_tcp_clients_from_one_host(self):
        handle = serve_key_manager(_service())
        transports = [RemoteKeyManager(handle.address) for _ in range(2)]
        try:
            self._upload_concurrently(transports)
        finally:
            for transport in transports:
                transport.close()
            handle.stop()

    def test_two_in_process_transports_over_one_service(self):
        service = _service()
        self._upload_concurrently(
            [LocalKeyManager(service), LocalKeyManager(service)]
        )

    def test_closed_connection_leaves_no_stream_state(self, tmp_path):
        service = _service(KeyManagerStateStore(tmp_path))
        handle = serve_key_manager(service)
        try:
            for _ in range(3):
                remote = RemoteKeyManager(handle.address)
                remote.keygen_batched(
                    BatchedKeyGenRequest(
                        sequence=4, hash_vectors=_vectors(3, 1)
                    )
                )
                remote.close()
            # The durable log is keyed by peer host, not by connection.
            logged = [
                _decode_batch(value)[1]
                for _, _, value in WriteAheadLog.replay(tmp_path / "delta.log")
            ]
            assert logged == ["127.0.0.1"] * 3
        finally:
            handle.stop()


class TestLocalSerialization:
    def test_local_transport_serializes_concurrent_batches(self):
        """The in-process transport must match one-TCP-connection
        semantics: concurrent callers serialize, every batch lands
        atomically (seed count always matches its own batch)."""
        service = _service()
        transport = LocalKeyManager(service)
        errors = []
        barrier = threading.Barrier(4)

        def caller(worker_id):
            try:
                barrier.wait()
                for i in range(10):
                    request = KeyGenRequest(
                        hash_vectors=_vectors(
                            5 + worker_id, worker_id * 100 + i
                        )
                    )
                    reply = transport.keygen(request)
                    assert len(reply.seeds) == 5 + worker_id
            except BaseException as exc:
                errors.append(exc)

        pool = [
            threading.Thread(target=caller, args=(i,)) for i in range(4)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not errors, errors
        assert service.key_manager.stats.requests == sum(
            (5 + w) * 10 for w in range(4)
        )


class TestRemoteSequenceEcho:
    def test_mispaired_reply_raises_protocol_error(self):
        """A reply carrying the wrong sequence means the stream is
        desynchronized; the client must refuse the seeds."""
        service = _service()
        handle = serve_key_manager(service)
        remote = RemoteKeyManager(handle.address)

        class _MispairingConn:
            def __init__(self, inner):
                self._inner = inner

            def call(self, message_type, payload, **kwargs):
                reply_type, reply = self._inner.call(
                    message_type, payload, **kwargs
                )
                if message_type == m.MSG_KEYGEN_BATCH_REQUEST:
                    response = BatchedKeyGenResponse.decode(reply)
                    response.sequence += 7  # corrupt the pairing
                    reply = response.encode()
                return reply_type, reply

            def __getattr__(self, name):
                return getattr(self._inner, name)

        remote._conn = _MispairingConn(remote._conn)
        try:
            with pytest.raises(m.ProtocolError, match="out of sequence"):
                remote.keygen_batched(
                    BatchedKeyGenRequest(
                        sequence=0, hash_vectors=_vectors(2, 1)
                    )
                )
        finally:
            remote._conn = remote._conn._inner
            remote.close()
            handle.stop()
