"""Trace propagation: one coherent trace across client, key manager, provider.

Covers the observability acceptance criteria (DESIGN.md §9): an upload or
download produces a single trace whose spans appear on every entity it
touched; wire retries and reconnects surface as span events with their
counters incremented; a server accepts frames without the trace-context
field, and a peer that rejects the flagged type byte is an error.
"""

import random
import socket
import struct

import pytest

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import SHACTR
from repro.obs import metrics as obs_metrics, tracing
from repro.tedstore import messages as m
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    _Connection,
    serve_key_manager,
    serve_provider,
)
from repro.tedstore.provider import ProviderService
from repro.tedstore.retry import RetryPolicy
from repro.traces.workload import unique_file
from tests.harness.rejecting_peer import RejectingPeer

_W = 2**14
_FAST_RETRY = dict(base_delay=0.01, multiplier=2.0, max_delay=0.1)


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
            secret=b"trace-secret",
            blowup_factor=1.05,
            batch_size=500,
            sketch_width=_W,
            rng=random.Random(7),
        )
    )


def _client(km, provider, **kwargs):
    return TedStoreClient(
        km, provider, profile=SHACTR, sketch_width=_W, **kwargs
    )


def _spans_by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


class TestInProcessTrace:
    def test_upload_produces_one_trace_with_service_spans(self, recorder):
        client = _client(
            LocalKeyManager(_key_manager_service()),
            LocalProvider(ProviderService(in_memory=True)),
        )
        client.upload("f", unique_file(40_000))

        trace_ids = recorder.trace_ids()
        assert len(trace_ids) == 1, "one upload must be one trace"
        spans = _spans_by_name(recorder.for_trace(trace_ids[0]))
        assert "client.upload" in spans
        # Both servers' service spans joined the same trace.
        assert "keymanager.keygen" in spans
        assert "provider.put_chunks" in spans
        root = spans["client.upload"][0]
        assert root.parent_span_id is None
        # Service spans descend from the client root via the contextvar.
        keygen = spans["keymanager.keygen"][0]
        assert keygen.trace_id == root.trace_id
        assert keygen.parent_span_id is not None

    def test_download_is_its_own_trace(self, recorder):
        client = _client(
            LocalKeyManager(_key_manager_service()),
            LocalProvider(ProviderService(in_memory=True)),
        )
        data = unique_file(20_000)
        client.upload("f", data)
        assert client.download("f") == data
        assert len(recorder.trace_ids()) == 2
        download_spans = _spans_by_name(
            recorder.for_trace(recorder.trace_ids()[-1])
        )
        assert "client.download" in download_spans
        assert "provider.get_chunks" in download_spans


class TestWireTrace:
    def test_tcp_roundtrip_is_one_coherent_trace(self, recorder):
        """Acceptance: same trace_id on client, key manager, and provider
        spans when the entities talk over real sockets."""
        km_handle = serve_key_manager(_key_manager_service())
        prov_handle = serve_provider(ProviderService(in_memory=True))
        km = RemoteKeyManager(km_handle.address)
        provider = RemoteProvider(prov_handle.address)
        client = _client(km, provider, batch_size=200)
        try:
            client.upload("wire-file", unique_file(30_000))
        finally:
            km.close()
            provider.close()
            km_handle.stop()
            prov_handle.stop()

        spans = _spans_by_name(recorder.spans())
        root = spans["client.upload"][0]
        # Client-side RPC spans and server-side dispatch + service spans
        # all share the root's trace id (servers run in this process, so
        # one recorder sees every entity).
        for name in (
            "rpc.keygen_batch",
            "rpc.put_chunks",
            "server.keygen_batch",
            "server.put_chunks",
            "keymanager.keygen",
            "provider.put_chunks",
        ):
            assert name in spans, f"missing {name}"
            for span in spans[name]:
                assert span.trace_id == root.trace_id, name
        # The server dispatch span's parent is the client's rpc span.
        rpc_ids = {s.span_id for s in spans["rpc.keygen_batch"]}
        assert spans["server.keygen_batch"][0].parent_span_id in rpc_ids

    def test_retries_surface_as_span_events_and_counters(self, recorder):
        """PR-1 recovery machinery is trace-visible: a provider crash shows
        up as wire.retry / wire.reconnect events on the rpc span, with the
        retry counters (legacy dict and registry) incremented."""
        registry = obs_metrics.get_registry()
        wire_counter = registry.counter(
            "ted_wire_client_events_total",
            labelnames=("entity", "event"),
        )
        retries_before = wire_counter.labels(
            entity="provider", event="retries"
        ).value

        provider_service = ProviderService(in_memory=True)
        km_handle = serve_key_manager(_key_manager_service())
        handles = {"provider": serve_provider(provider_service)}
        km = RemoteKeyManager(km_handle.address)
        provider = RemoteProvider(
            handles["provider"].address,
            retry_policy=RetryPolicy(max_attempts=6, **_FAST_RETRY),
        )
        client = _client(km, provider, batch_size=200)
        try:
            data = unique_file(30_000)
            client.upload("before-crash", data)
            port = handles["provider"].address[1]
            handles["provider"].kill()
            handles["provider"] = serve_provider(provider_service, port=port)
            client.upload("after-crash", data)

            wire = provider.wire_stats()
            assert wire["client_retries"] >= 1
            assert wire["client_reconnects"] >= 1
            retries_after = wire_counter.labels(
                entity="provider", event="retries"
            ).value
            assert retries_after >= retries_before + 1

            events = [
                name
                for span in recorder.spans()
                if span.name.startswith("rpc.")
                for name in span.event_names()
            ]
            assert "wire.retry" in events
            assert "wire.reconnect" in events
        finally:
            km.close()
            provider.close()
            km_handle.stop()
            handles["provider"].stop()


class TestOldPeerInterop:
    def test_unflagged_frame_accepted_by_new_server(self, recorder):
        """Old client → new server: a frame without the trace flag (and so
        without a context section) is served normally, untraced."""
        handle = serve_provider(ProviderService(in_memory=True))
        try:
            sock = socket.create_connection(handle.address, timeout=5)
            try:
                request = m.PutChunks(chunks=[(b"fp-old", b"payload")])
                frame = m.frame(m.MSG_PUT_CHUNKS, request.encode())
                assert frame[4] == m.MSG_PUT_CHUNKS  # flag bit really unset
                sock.sendall(frame)
                header = _recv_exactly(sock, 5)
                (length,) = struct.unpack(">I", header[:4])
                assert header[4] == m.MSG_PUT_CHUNKS_RESPONSE
                payload = _recv_exactly(sock, length - 1)
                reply = m.PutChunksResponse.decode(payload)
                assert reply.stored == 1
            finally:
                sock.close()
        finally:
            handle.stop()
        # The server span exists but started its own fresh trace.
        server_spans = [
            s for s in recorder.spans() if s.name == "server.put_chunks"
        ]
        assert server_spans
        assert server_spans[0].parent_span_id is None

    def test_rejected_flagged_frame_not_resent(self):
        """New client → a peer that rejects the flagged type byte: the
        caller sees the error after exactly one request; nothing is
        resent unflagged."""
        with RejectingPeer() as peer:
            conn = _Connection(
                peer.address,
                retry_policy=RetryPolicy(max_attempts=4, **_FAST_RETRY),
                entity="provider",
            )
            try:
                with pytest.raises(
                    RuntimeError, match="remote error: unexpected message"
                ):
                    conn.call(m.MSG_STATS_REQUEST, b"")
            finally:
                conn.close()
            assert peer.frames == [m.MSG_STATS_REQUEST | m.MSG_FLAG_TRACE]


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        piece = sock.recv(n - len(data))
        if not piece:
            raise ConnectionError("peer closed")
        data += piece
    return data
