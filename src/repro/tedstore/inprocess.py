"""In-process TEDStore deployment: direct service calls, no sockets.

Used by unit/integration tests and the single-machine microbenchmarks
(Experiment B.1 runs all three entities on one machine; the in-process
transport is the zero-network-cost limit of that setup).
"""

from __future__ import annotations

import threading
from typing import List, Tuple

from repro.tedstore.keymanager import KeygenStream, KeyManagerService
from repro.tedstore.messages import (
    BatchedKeyGenRequest,
    BatchedKeyGenResponse,
    Chunks,
    GetChunks,
    GetRecipes,
    KeyGenRequest,
    KeyGenResponse,
    PutChunks,
    PutChunksResponse,
    PutRecipes,
)
from repro.tedstore.provider import DEFAULT_TENANT, ProviderService


class LocalKeyManager:
    """Direct-call key-manager transport.

    Honors the same batching contract as one TCP connection (DESIGN.md
    §10): a per-transport lock admits one keygen call at a time, so
    batches submitted through this instance reach the key manager in
    submission order. Without it, concurrent callers sharing a transport
    could interleave at the service in an order the network path can
    never produce — which is exactly the in-process/wire divergence the
    cross-transport parity test pins down.

    Each instance is one keygen stream, like one connection: it owns
    the stream's sequence floor, so two transports over one service
    never reject each other's batches.

    Args:
        service: the key-manager service to call into.
        client_id: identity for rate limiting and the durable log (the
            wire path uses the peer host here).
    """

    def __init__(
        self, service: KeyManagerService, client_id: str = "local"
    ) -> None:
        self.service = service
        self.client_id = client_id
        self._lock = threading.Lock()
        self._stream = KeygenStream()

    def keygen(self, request: KeyGenRequest) -> KeyGenResponse:
        with self._lock:
            return self.service.handle_keygen(
                request, client_id=self.client_id
            )

    def keygen_batched(
        self, request: BatchedKeyGenRequest
    ) -> BatchedKeyGenResponse:
        with self._lock:
            return self.service.handle_keygen_batched(
                request, client_id=self.client_id, stream=self._stream
            )

    def stats(self) -> List[Tuple[str, int]]:
        return self.service.stats()


class LocalProvider:
    """Direct-call provider transport.

    Args:
        service: the provider service to call into.
        tenant: tenant namespace every call is scoped to — the
            in-process analogue of the wire HELLO handshake binding a
            connection to a tenant (DESIGN.md §13). The service
            authenticates the binding once at construction, like the
            wire path does per connection.
        auth_token: shared secret checked when the provider enforces
            per-tenant authentication.
    """

    def __init__(
        self,
        service: ProviderService,
        tenant: str = DEFAULT_TENANT,
        auth_token: bytes = b"",
    ) -> None:
        self.service = service
        self.tenant = tenant or DEFAULT_TENANT
        service.authenticate(self.tenant, auth_token)

    def put_chunks(self, request: PutChunks) -> PutChunksResponse:
        return self.service.handle_put_chunks(request, tenant=self.tenant)

    def get_chunks(self, request: GetChunks) -> Chunks:
        return self.service.handle_get_chunks(request, tenant=self.tenant)

    def put_recipes(self, request: PutRecipes) -> None:
        self.service.handle_put_recipes(request, tenant=self.tenant)

    def get_recipes(self, request: GetRecipes) -> PutRecipes:
        return self.service.handle_get_recipes(request, tenant=self.tenant)

    def stats(self) -> List[Tuple[str, int]]:
        return self.service.stats()
