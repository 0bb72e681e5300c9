"""TCP deployment of TEDStore: threaded servers and client stubs.

One server per entity (key manager, provider), each accepting persistent
connections from any number of clients; every connection is served by its
own thread, mirroring the paper's multi-threaded prototype (§4). The wire
format is :mod:`repro.tedstore.messages`. Servers bind to an ephemeral port
by default so tests and benchmarks can run many instances concurrently.

Robustness (DESIGN.md §8):

* **Client** — a failed ``call()`` leaves the stream desynchronized (a late
  reply would be misread as the answer to the next request), so any
  transport error closes the socket; idempotent requests then reconnect and
  retry under a configurable :class:`~repro.tedstore.retry.RetryPolicy`.
  ``MSG_BUSY`` replies are retried without reconnecting — the stream is
  still in sync, the server just shed load.
* **Server** — per-connection idle timeouts release handler threads pinned
  by stalled peers, a max-inflight guard sheds load with ``MSG_BUSY``
  instead of queueing unboundedly, and shutdown drains in-flight requests
  before closing connections.
* **Observability** (DESIGN.md §9) — both sides count retries, reconnects,
  timeouts, and busy rejections on the metrics registry; the wire ``stats``
  message serves the legacy counter names plus a full registry snapshot.
  Requests carry a trace context (high bit of the type byte), so a client
  upload is one coherent trace across the key manager and the provider;
  servers also accept unflagged frames (probes, the HELLO frame).
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.tedstore import messages as m
from repro.tedstore.keymanager import KeygenStream, KeyManagerService
from repro.tedstore.provider import DEFAULT_TENANT, ProviderService
from repro.tedstore.retry import RetryPolicy

DEFAULT_IDLE_TIMEOUT = 300.0

_REGISTRY = obs_metrics.get_registry()
_SERVER_REQUEST_SECONDS = _REGISTRY.histogram(
    "ted_wire_server_request_seconds",
    "Server-side request dispatch latency",
    labelnames=("entity",),
)
_CLIENT_WIRE = _REGISTRY.counter(
    "ted_wire_client_events_total",
    "Client-side wire events (calls, retries, reconnects, timeouts, busy)",
    labelnames=("entity", "event"),
)
_CLIENT_CALL_SECONDS = _REGISTRY.histogram(
    "ted_wire_client_call_seconds",
    "Client-side request/response latency including retries",
    labelnames=("entity",),
)


class ServerBusy(ConnectionError):
    """The server shed this request (max-inflight guard or draining)."""


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ConnectionError."""
    parts = []
    remaining = n
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            raise ConnectionError("peer closed the connection")
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        server_address: Tuple[str, int],
        handler_class,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        max_inflight: Optional[int] = None,
        entity: str = "server",
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        super().__init__(server_address, handler_class)
        self.idle_timeout = idle_timeout
        self.max_inflight = max_inflight
        self.entity = entity
        self.draining = False
        self._inflight = 0
        self._state = threading.Condition()
        self._active_sockets: set = set()
        self.wire_counters: Dict[str, int] = {
            "connections": 0,
            "idle_timeouts": 0,
            "busy_rejections": 0,
            "forced_disconnects": 0,
        }

    # -- connection / request accounting --------------------------------------

    def register_connection(self, sock: socket.socket) -> None:
        with self._state:
            self._active_sockets.add(sock)
            self.wire_counters["connections"] += 1

    def unregister_connection(self, sock: socket.socket) -> None:
        with self._state:
            self._active_sockets.discard(sock)

    def count(self, name: str) -> None:
        with self._state:
            self.wire_counters[name] += 1

    def try_begin_request(self) -> bool:
        """Claim an in-flight slot; False means reply ``MSG_BUSY``."""
        with self._state:
            if self.draining:
                return False
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                self.wire_counters["busy_rejections"] += 1
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        with self._state:
            self._inflight -= 1
            self._state.notify_all()

    def drain(self, timeout: float) -> bool:
        """Stop admitting requests; wait for in-flight ones to finish."""
        with self._state:
            self.draining = True
            return self._state.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def close_active_connections(self) -> None:
        with self._state:
            victims = list(self._active_sockets)
            self._active_sockets.clear()
            self.wire_counters["forced_disconnects"] += len(victims)
        for sock in victims:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def stats_pairs(self) -> List[Tuple[str, int]]:
        """Server wire counters as stats-message pairs."""
        with self._state:
            return [
                (f"server_{name}", value)
                for name, value in self.wire_counters.items()
            ]


class _ServiceHandler(socketserver.BaseRequestHandler):
    """Per-connection loop: read frame, dispatch, reply."""

    def handle(self) -> None:
        sock = self.request
        server: _Server = self.server  # type: ignore[assignment]
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if server.idle_timeout is not None:
            # A stalled peer must not pin this handler thread forever.
            sock.settimeout(server.idle_timeout)
        dispatch = server.dispatch  # type: ignore[attr-defined]
        # Rate-limiting identity is the peer host (not host:port): a
        # brute-forcing client must not reset its budget by reconnecting.
        peer = str(self.client_address[0])
        # Per-connection dispatch state: the HELLO handshake binds this
        # connection to a tenant namespace (DESIGN.md §13). A connection
        # that never sends HELLO stays on the default tenant.
        conn_state: Dict[str, object] = {}
        server.register_connection(sock)
        tracer = tracing.get_tracer()
        try:
            while True:
                try:
                    message_type, payload, trace_ctx = m.read_frame_ex(
                        lambda n: _recv_exact(sock, n)
                    )
                except socket.timeout:
                    server.count("idle_timeouts")
                    return
                except (ConnectionError, OSError, m.ProtocolError):
                    return
                if not server.try_begin_request():
                    reply = m.frame(
                        m.MSG_BUSY, m.encode_error("server busy")
                    )
                else:
                    # A trace context from the peer makes this dispatch a
                    # child of the client's RPC span; a missing or
                    # unparseable context degrades to a fresh local trace.
                    remote_parent = tracing.decode_context(trace_ctx)
                    try:
                        with tracer.span(
                            f"server.{m.message_name(message_type)}",
                            attributes={"entity": server.entity, "peer": peer},
                            remote_parent=remote_parent,
                        ), _SERVER_REQUEST_SECONDS.labels(
                            entity=server.entity
                        ).time():
                            reply = dispatch(
                                message_type, payload, peer, conn_state
                            )
                    except FileNotFoundError as exc:
                        # Typed miss: the client raises this locally and
                        # never retries (the name simply does not exist).
                        reply = m.frame(
                            m.MSG_NOT_FOUND,
                            m.encode_not_found(m.NOT_FOUND_FILE, str(exc)),
                        )
                    except KeyError as exc:
                        # KeyError's str() is the repr of its argument;
                        # unwrap so the wire message has no quote noise.
                        message = (
                            str(exc.args[0]) if exc.args else str(exc)
                        )
                        reply = m.frame(
                            m.MSG_NOT_FOUND,
                            m.encode_not_found(m.NOT_FOUND_CHUNK, message),
                        )
                    except Exception as exc:  # report, keep connection alive
                        reply = m.frame(m.MSG_ERROR, m.encode_error(str(exc)))
                    finally:
                        server.end_request()
                try:
                    sock.sendall(reply)
                except OSError:
                    return
                if server.draining:
                    return
        finally:
            server.unregister_connection(sock)


class ServerHandle:
    """A running server plus its lifecycle controls."""

    def __init__(self, server: _Server) -> None:
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the server is listening on."""
        return self._server.server_address  # type: ignore[return-value]

    def wire_stats(self) -> Dict[str, int]:
        """Server-side wire counters (connections, timeouts, rejections)."""
        return dict(self._server.stats_pairs())

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Gracefully shut down: drain in-flight requests, then close.

        New requests are rejected with ``MSG_BUSY`` while draining; after
        ``drain_timeout`` seconds any still-open connections are closed
        forcibly so the accept thread can always be joined.
        """
        self._server.drain(timeout=drain_timeout)
        self._server.shutdown()
        self._server.close_active_connections()
        self._server.server_close()
        self._thread.join(timeout=5)

    def kill(self) -> None:
        """Hard stop: close every connection without draining.

        Fault-injection hook for tests — equivalent to the process dying
        mid-request.
        """
        with self._server._state:
            self._server.draining = True
        self._server.shutdown()
        self._server.close_active_connections()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _pong_frame(
    role: str,
    service: object,
    shard_id: int,
    epoch_override: Optional[int] = None,
) -> bytes:
    """A PONG frame naming the serving role/shard and its ring epoch.

    ``epoch_override`` is for shard-leaf processes: the leaf service
    itself has no ring (its store is one shard's directory), so the
    serving process reports the deployment ring's epoch instead.
    """
    if epoch_override is not None:
        epoch = int(epoch_override)
    else:
        epoch_fn = getattr(service, "ring_epoch", None)
        epoch = int(epoch_fn()) if callable(epoch_fn) else 0
    return m.frame(
        m.MSG_PONG,
        m.Pong(role=role, shard=shard_id, epoch=epoch).encode(),
    )


def serve_key_manager(
    service: KeyManagerService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
    max_inflight: Optional[int] = None,
) -> ServerHandle:
    """Start a key-manager server; returns its handle."""
    server = _Server(
        (host, port),
        _ServiceHandler,
        idle_timeout=idle_timeout,
        max_inflight=max_inflight,
        entity="keymanager",
    )

    def dispatch(
        message_type: int, payload: bytes, peer: str, conn_state: Dict
    ) -> bytes:
        if message_type == m.MSG_PING:
            return _pong_frame("keymanager", service, -1)
        if message_type == m.MSG_KEYGEN_REQUEST:
            response = service.handle_keygen(
                m.KeyGenRequest.decode(payload), client_id=peer
            )
            return m.frame(m.MSG_KEYGEN_RESPONSE, response.encode())
        if message_type == m.MSG_KEYGEN_BATCH_REQUEST:
            # The connection is the keygen stream: its sequence floor
            # lives (and dies) with the per-connection state, while rate
            # limiting and the durable log stay keyed by peer host.
            response = service.handle_keygen_batched(
                m.BatchedKeyGenRequest.decode(payload),
                client_id=peer,
                stream=conn_state.setdefault(
                    "keygen_stream", KeygenStream()
                ),
            )
            return m.frame(m.MSG_KEYGEN_BATCH_RESPONSE, response.encode())
        if message_type == m.MSG_STATS_REQUEST:
            return m.frame(
                m.MSG_STATS_RESPONSE,
                m.encode_stats(
                    service.stats()
                    + server.stats_pairs()
                    + _REGISTRY.snapshot_pairs()
                ),
            )
        return m.frame(
            m.MSG_ERROR, m.encode_error(f"unexpected message {message_type}")
        )

    server.dispatch = dispatch  # type: ignore[attr-defined]
    return ServerHandle(server)


def serve_provider(
    service: ProviderService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
    max_inflight: Optional[int] = None,
    shard_id: int = -1,
    ring_epoch: Optional[int] = None,
) -> ServerHandle:
    """Start a provider server; returns its handle.

    ``shard_id`` names the failure domain a ``repro serve-shard``
    process serves (echoed in PONG); ``-1`` means "the whole store".
    ``ring_epoch`` overrides the epoch reported in PONG for shard-leaf
    processes, whose service wraps a single shard directory and so has
    no ring of its own.
    """
    server = _Server(
        (host, port),
        _ServiceHandler,
        idle_timeout=idle_timeout,
        max_inflight=max_inflight,
        entity="provider",
    )

    def dispatch(
        message_type: int, payload: bytes, peer: str, conn_state: Dict
    ) -> bytes:
        tenant = conn_state.get("tenant", DEFAULT_TENANT)
        if message_type == m.MSG_PING:
            return _pong_frame("provider", service, shard_id, ring_epoch)
        if message_type == m.MSG_HELLO:
            hello = m.Hello.decode(payload)
            requested = hello.tenant or DEFAULT_TENANT
            service.authenticate(requested, hello.auth_token)
            conn_state["tenant"] = requested
            return m.frame(
                m.MSG_HELLO_OK,
                m.HelloOk(
                    tenant=requested,
                    cross_user_dedup=service.cross_user_dedup,
                ).encode(),
            )
        if message_type == m.MSG_PUT_CHUNKS:
            response = service.handle_put_chunks(
                m.PutChunks.decode(payload), tenant=tenant
            )
            return m.frame(m.MSG_PUT_CHUNKS_RESPONSE, response.encode())
        if message_type == m.MSG_GET_CHUNKS:
            response = service.handle_get_chunks(
                m.GetChunks.decode(payload), tenant=tenant
            )
            return m.frame(m.MSG_CHUNKS, response.encode())
        if message_type == m.MSG_PUT_RECIPES:
            service.handle_put_recipes(
                m.PutRecipes.decode(payload), tenant=tenant
            )
            return m.frame(m.MSG_OK, b"")
        if message_type == m.MSG_GET_RECIPES:
            response = service.handle_get_recipes(
                m.GetRecipes.decode(payload), tenant=tenant
            )
            return m.frame(m.MSG_RECIPES, response.encode())
        if message_type == m.MSG_STATS_REQUEST:
            tenant_pairs = [
                (f"tenant_{name}", value)
                for name, value in service.tenant_stats(tenant)
            ]
            return m.frame(
                m.MSG_STATS_RESPONSE,
                m.encode_stats(
                    service.stats()
                    + tenant_pairs
                    + server.stats_pairs()
                    + _REGISTRY.snapshot_pairs()
                ),
            )
        return m.frame(
            m.MSG_ERROR, m.encode_error(f"unexpected message {message_type}")
        )

    server.dispatch = dispatch  # type: ignore[attr-defined]
    return ServerHandle(server)


def serve_shard_observer(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
    max_inflight: Optional[int] = None,
) -> ServerHandle:
    """Start a KM sketch-observer shard server (DESIGN.md §17).

    ``service`` is a :class:`~repro.tedstore.sharding.ShardObserverService`
    (duck-typed to keep this module free of a sharding import): one
    durable Count-Min shard that answers ``MSG_SHARD_OBSERVE`` with the
    frequency estimates the front's seed selection needs.
    """
    server = _Server(
        (host, port),
        _ServiceHandler,
        idle_timeout=idle_timeout,
        max_inflight=max_inflight,
        entity="km_shard",
    )

    def dispatch(
        message_type: int, payload: bytes, peer: str, conn_state: Dict
    ) -> bytes:
        if message_type == m.MSG_PING:
            return _pong_frame(
                "km_shard", service, service.shard_id, service.ring_epoch()
            )
        if message_type == m.MSG_SHARD_OBSERVE:
            response = service.handle_observe(
                m.ShardObserveRequest.decode(payload), peer=peer
            )
            return m.frame(m.MSG_SHARD_ESTIMATES, response.encode())
        if message_type == m.MSG_STATS_REQUEST:
            return m.frame(
                m.MSG_STATS_RESPONSE,
                m.encode_stats(
                    service.stats()
                    + server.stats_pairs()
                    + _REGISTRY.snapshot_pairs()
                ),
            )
        return m.frame(
            m.MSG_ERROR, m.encode_error(f"unexpected message {message_type}")
        )

    server.dispatch = dispatch  # type: ignore[attr-defined]
    return ServerHandle(server)


def probe_endpoint(
    address: Tuple[str, int], timeout: float = 2.0
) -> m.Pong:
    """One-shot PING/PONG health probe against ``address``.

    Opens its own short-lived socket so probes never contend with (or
    get queued behind) real traffic on a pooled connection — a paused
    shard must not stall the health monitor's whole round. Raises on
    any failure: refused, timeout, or a non-PONG reply.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(m.frame(m.MSG_PING, b""))
        reply_type, reply = m.read_frame(lambda n: _recv_exact(sock, n))
    if reply_type != m.MSG_PONG:
        raise m.ProtocolError(f"unexpected probe reply type {reply_type}")
    return m.Pong.decode(reply)


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split a ``host:port`` ring endpoint into an address tuple."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"malformed endpoint {endpoint!r}")
    return host or "127.0.0.1", int(port)


class _Connection:
    """One persistent client connection with request/response semantics.

    Connects lazily and reconnects after any transport error: a failed
    exchange desynchronizes the stream (a late reply would be misread as
    the answer to the next request), so the socket is always closed on
    failure. Idempotent calls are then retried under ``retry_policy``.
    """

    _WIRE_ERRORS = (ConnectionError, socket.timeout, OSError)

    def __init__(
        self,
        address: Tuple[str, int],
        retry_policy: Optional[RetryPolicy] = None,
        connect_timeout: float = 10.0,
        io_timeout: float = 60.0,
        entity: str = "peer",
        hello: Optional[m.Hello] = None,
    ) -> None:
        self._address = address
        self._policy = retry_policy or RetryPolicy()
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._entity = entity
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "calls": 0,
            "retries": 0,
            "reconnects": 0,
            "timeouts": 0,
            "busy": 0,
        }
        # Tenant handshake (DESIGN.md §13): sent on every (re)connect so
        # a reconnected socket is re-bound to the same tenant before any
        # retried request reaches the provider.
        self._hello = hello
        self.hello_ok: Optional[m.HelloOk] = None
        self._connect()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a wire counter (caller holds ``self._lock``)."""
        self.counters[name] += amount
        _CLIENT_WIRE.labels(entity=self._entity, event=name).inc(amount)

    # -- socket lifecycle ------------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection(
            self._address, timeout=self._connect_timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            if self._hello is not None:
                self._handshake(sock)
        except BaseException:
            # A failure anywhere past create_connection — including the
            # server crashing mid-HELLO — must close the half-open
            # socket, or it leaks and the next reconnect would skip the
            # tenant rebind on a socket the server never acknowledged.
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass
            raise

    def _handshake(self, sock: socket.socket) -> None:
        """Bind the fresh socket to our tenant (runs on every connect)."""
        assert self._hello is not None
        sock.settimeout(self._io_timeout)
        sock.sendall(m.frame(m.MSG_HELLO, self._hello.encode()))
        reply_type, reply = m.read_frame(lambda n: _recv_exact(sock, n))
        if reply_type == m.MSG_HELLO_OK:
            self.hello_ok = m.HelloOk.decode(reply)
            return
        if reply_type == m.MSG_BUSY:
            # The server shed the handshake; surface as a wire error so
            # the caller's retry loop reconnects (HELLO is read-only).
            raise ConnectionError(
                f"server busy during handshake: {m.decode_error(reply)}"
            )
        if reply_type == m.MSG_ERROR:
            raise RuntimeError(
                f"tenant handshake rejected: {m.decode_error(reply)}"
            )
        raise m.ProtocolError(
            f"unexpected handshake reply type {reply_type}"
        )

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            # The constructor connects eagerly, so any connect here is a
            # reconnect after a dropped socket.
            self._connect()
            self._count("reconnects")
            tracing.add_event("wire.reconnect", entity=self._entity)
        return self._sock  # type: ignore[return-value]

    # -- request/response ------------------------------------------------------

    def call(
        self, message_type: int, payload: bytes, idempotent: bool = True
    ) -> Tuple[int, bytes]:
        """One request/response exchange, with reconnect-and-retry.

        Non-idempotent calls never retry after the request may have been
        delivered: the socket is dropped and the error propagates.

        Each call runs under an ``rpc.<message>`` span whose context rides
        the request frame; retries, reconnects, and busy backoffs surface
        as span events.
        """
        tracer = tracing.get_tracer()
        with tracer.span(
            f"rpc.{m.message_name(message_type)}",
            attributes={"entity": self._entity},
        ) as span, self._lock, _CLIENT_CALL_SECONDS.labels(
            entity=self._entity
        ).time():
            self._count("calls")
            state = self._policy.start_call()
            while True:
                request = m.frame(
                    message_type, payload, trace_context=tracer.inject()
                )
                try:
                    reply_type, reply = self._exchange(request, state)
                except ServerBusy as exc:
                    # Frame was well-formed and answered: the stream is
                    # still in sync, so retry without reconnecting.
                    self._count("busy")
                    span.add_event("wire.busy", error=str(exc))
                    state.pause(state.admit_failure(exc))
                    self._count("retries")
                    continue
                except self._WIRE_ERRORS + (m.ProtocolError,) as exc:
                    # A corrupt frame desynchronizes the stream exactly
                    # like a dropped connection: reconnect before retrying.
                    if isinstance(exc, socket.timeout):
                        self._count("timeouts")
                    self._drop_socket()
                    if not idempotent:
                        raise
                    span.add_event(
                        "wire.retry", error=f"{type(exc).__name__}: {exc}"
                    )
                    state.pause(state.admit_failure(exc))
                    self._count("retries")
                    continue
                break
        if reply_type == m.MSG_NOT_FOUND:
            # Typed miss: a client error, never retried — the stream is
            # in sync (the server answered) and the name does not exist.
            kind, message = m.decode_not_found(reply)
            if kind == m.NOT_FOUND_FILE:
                raise FileNotFoundError(message)
            raise KeyError(message)
        if reply_type == m.MSG_ERROR:
            raise RuntimeError(f"remote error: {m.decode_error(reply)}")
        return reply_type, reply

    def _exchange(
        self, request: bytes, state
    ) -> Tuple[int, bytes]:
        sock = self._ensure_connected()
        timeout = self._io_timeout
        remaining = state.remaining()
        if remaining is not None:
            if remaining <= 0:
                raise socket.timeout("per-call deadline exhausted")
            timeout = min(timeout, remaining)
        sock.settimeout(timeout)
        sock.sendall(request)
        reply_type, reply = m.read_frame(lambda n: _recv_exact(sock, n))
        if reply_type == m.MSG_BUSY:
            raise ServerBusy(m.decode_error(reply))
        return reply_type, reply

    def ping(self) -> m.Pong:
        """One PING/PONG heartbeat over this connection."""
        reply_type, payload = self.call(m.MSG_PING, b"")
        if reply_type != m.MSG_PONG:
            raise m.ProtocolError(
                f"unexpected ping reply type {reply_type}"
            )
        return m.Pong.decode(payload)

    def stats_pairs(self) -> List[Tuple[str, int]]:
        """Client wire counters as stats-message pairs."""
        with self._lock:
            return [
                (f"client_{name}", value)
                for name, value in self.counters.items()
            ]

    def close(self) -> None:
        with self._lock:
            self._drop_socket()


class RemoteKeyManager:
    """TCP key-manager transport (client stub)."""

    def __init__(
        self,
        address: Tuple[str, int],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._conn = _Connection(
            address,
            retry_policy=retry_policy,
            entity="key_manager",
        )

    def keygen(self, request: m.KeyGenRequest) -> m.KeyGenResponse:
        # Retried as idempotent: a duplicate batch re-updates the sketch,
        # which only over-estimates frequencies — the fail-safe direction
        # (over-estimates can only raise t; Experiment A.2).
        _, payload = self._conn.call(m.MSG_KEYGEN_REQUEST, request.encode())
        return m.KeyGenResponse.decode(payload)

    def keygen_batched(
        self, request: m.BatchedKeyGenRequest
    ) -> m.BatchedKeyGenResponse:
        # Idempotent like keygen: a retry replays the same sequence
        # number, which the server's batching contract accepts.
        _, payload = self._conn.call(
            m.MSG_KEYGEN_BATCH_REQUEST, request.encode()
        )
        response = m.BatchedKeyGenResponse.decode(payload)
        if response.sequence != request.sequence:
            # A mispaired reply means the stream is desynchronized;
            # deriving keys from it would corrupt every chunk after it.
            raise m.ProtocolError(
                f"keygen batch reply out of sequence: sent "
                f"{request.sequence}, got {response.sequence}"
            )
        return response

    def ping(self) -> m.Pong:
        """Heartbeat; raises if the key manager is unreachable."""
        return self._conn.ping()

    def stats(self) -> List[Tuple[str, int]]:
        _, payload = self._conn.call(m.MSG_STATS_REQUEST, b"")
        return m.decode_stats(payload) + self._conn.stats_pairs()

    def wire_stats(self) -> Dict[str, int]:
        """Client-side retry/reconnect/timeout counters."""
        return dict(self._conn.stats_pairs())

    def close(self) -> None:
        self._conn.close()


class RemoteProvider:
    """TCP provider transport (client stub).

    Args:
        data_connections: extra connections dedicated to chunk-data
            frames (``put_chunks`` and ``get_chunks``). With the
            default 0, all traffic shares one connection. A client
            running stage threads sets this so bulk chunk frames never
            queue behind (or ahead of) recipe and control traffic, and
            so chunk round-trips overlap with keygen traffic on the other
            entity's socket. Data calls round-robin over the pool; each
            individual call still runs request/response, so a single
            uploader (or prefetcher) thread keeps strict ordering even
            across pool members.
        tenant: tenant namespace this client binds to via the HELLO
            handshake (DESIGN.md §13). The default tenant without a
            token sends no HELLO.
        auth_token: shared secret presented in HELLO when the provider
            enforces per-tenant authentication.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        retry_policy: Optional[RetryPolicy] = None,
        data_connections: int = 0,
        tenant: str = DEFAULT_TENANT,
        auth_token: bytes = b"",
        connect_timeout: float = 10.0,
        io_timeout: float = 60.0,
    ) -> None:
        if data_connections < 0:
            raise ValueError("data_connections cannot be negative")
        self.tenant = tenant or DEFAULT_TENANT
        # Every connection (control and data pool) performs the same
        # handshake on each (re)connect, so a reconnected data socket is
        # re-bound to the tenant before any retried chunk frame lands.
        hello: Optional[m.Hello] = None
        if self.tenant != DEFAULT_TENANT or auth_token:
            hello = m.Hello(tenant=self.tenant, auth_token=auth_token)
        self._hello = hello
        # Build the control + data pool transactionally: if any later
        # connection fails (server dies mid-HELLO on conn k), the ones
        # already connected must be closed, not leaked with the
        # constructor's exception.
        built: List[_Connection] = []
        try:
            for _ in range(1 + data_connections):
                built.append(
                    _Connection(
                        address,
                        retry_policy=retry_policy,
                        entity="provider",
                        hello=hello,
                        connect_timeout=connect_timeout,
                        io_timeout=io_timeout,
                    )
                )
        except BaseException:
            for conn in built:
                conn.close()
            raise
        self._conn = built[0]
        self._data_conns = built[1:]
        self._rr_lock = threading.Lock()
        self._rr_next = 0

    def _data_conn(self) -> _Connection:
        if not self._data_conns:
            return self._conn
        with self._rr_lock:
            conn = self._data_conns[self._rr_next % len(self._data_conns)]
            self._rr_next += 1
        return conn

    @property
    def hello_ok(self) -> Optional[m.HelloOk]:
        """Server's handshake reply on the control connection, if any."""
        return self._conn.hello_ok

    def put_chunks(self, request: m.PutChunks) -> m.PutChunksResponse:
        # Idempotent: the provider deduplicates by fingerprint, so a
        # replayed batch stores nothing new.
        _, payload = self._data_conn().call(
            m.MSG_PUT_CHUNKS, request.encode()
        )
        return m.PutChunksResponse.decode(payload)

    def get_chunks(self, request: m.GetChunks) -> m.Chunks:
        # Idempotent read: safe to retry, and routed over the data pool
        # so restore prefetch traffic never queues behind control calls.
        _, payload = self._data_conn().call(
            m.MSG_GET_CHUNKS, request.encode()
        )
        return m.Chunks.decode(payload)

    def put_recipes(self, request: m.PutRecipes) -> None:
        # Idempotent: rewriting the same sealed recipes is a no-op.
        self._conn.call(m.MSG_PUT_RECIPES, request.encode())

    def get_recipes(self, request: m.GetRecipes) -> m.PutRecipes:
        _, payload = self._conn.call(m.MSG_GET_RECIPES, request.encode())
        return m.PutRecipes.decode(payload)

    def ping(self) -> m.Pong:
        """Heartbeat; raises if the provider is unreachable."""
        return self._conn.ping()

    def stats(self) -> List[Tuple[str, int]]:
        _, payload = self._conn.call(m.MSG_STATS_REQUEST, b"")
        return m.decode_stats(payload) + self.wire_stats_pairs()

    def wire_stats(self) -> Dict[str, int]:
        """Client-side retry/reconnect/timeout counters."""
        return dict(self.wire_stats_pairs())

    def wire_stats_pairs(self) -> List[Tuple[str, int]]:
        """Wire counters summed over the control + data connections."""
        totals: Dict[str, int] = {}
        for conn in [self._conn, *self._data_conns]:
            for name, value in conn.stats_pairs():
                totals[name] = totals.get(name, 0) + value
        return list(totals.items())

    def close(self) -> None:
        self._conn.close()
        for conn in self._data_conns:
            conn.close()


class RemoteShardObserver:
    """TCP client stub for one KM sketch-observer shard (DESIGN.md §17).

    Used by the :class:`~repro.tedstore.sharding.ShardedKeyManager`
    front when the ring publishes per-shard endpoints: each keygen
    batch's sub-batches travel to their observer processes, which
    return the frequency estimates the front's selection needs.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        retry_policy: Optional[RetryPolicy] = None,
        connect_timeout: float = 10.0,
        io_timeout: float = 60.0,
    ) -> None:
        self.address = address
        self._conn = _Connection(
            address,
            retry_policy=retry_policy,
            entity="km_shard",
            connect_timeout=connect_timeout,
            io_timeout=io_timeout,
        )

    def observe(
        self, request: m.ShardObserveRequest
    ) -> m.ShardObserveResponse:
        # Idempotent: the observer logs sub-batches under the client
        # stream identity, so a replay re-applies the same delta the
        # durable store already dedups by batch id (DESIGN.md §15).
        _, payload = self._conn.call(m.MSG_SHARD_OBSERVE, request.encode())
        return m.ShardObserveResponse.decode(payload)

    def ping(self) -> m.Pong:
        """Heartbeat; raises if the observer shard is unreachable."""
        return self._conn.ping()

    def stats(self) -> List[Tuple[str, int]]:
        _, payload = self._conn.call(m.MSG_STATS_REQUEST, b"")
        return m.decode_stats(payload) + self._conn.stats_pairs()

    def wire_stats(self) -> Dict[str, int]:
        """Client-side retry/reconnect/timeout counters."""
        return dict(self._conn.stats_pairs())

    def close(self) -> None:
        self._conn.close()
