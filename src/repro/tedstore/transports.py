"""Transport interfaces between TEDStore entities.

The client speaks to the key manager and the provider through these small
interfaces, so the same client code runs over direct in-process calls
(:mod:`repro.tedstore.inprocess`) or real TCP (:mod:`repro.tedstore.network`).
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

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


class KeyManagerTransport(Protocol):
    """Client's view of the key manager.

    ``keygen`` must be safe to retry: transports may replay a batch after
    a transport failure, and a replayed batch only re-updates the sketch
    (over-estimation is the fail-safe direction — it can only raise ``t``).

    **Ordering contract (DESIGN.md §10).** Batches submitted through one
    transport instance reach the key manager in submission order, one in
    flight at a time — over TCP the per-connection request/response loop
    enforces this; the in-process transport holds an equivalent
    per-transport lock. One transport instance is one keygen *stream*:
    the key manager rejects a sequence regression inside it and never
    compares sequences across streams. The client relies on this:
    sketch frequency state and probabilistic seed selection are both
    sensitive to the order in which chunks arrive at the key manager.
    """

    def keygen(self, request: KeyGenRequest) -> KeyGenResponse:
        """Submit a batch of short-hash vectors; receive key seeds."""
        ...

    def keygen_batched(
        self, request: BatchedKeyGenRequest
    ) -> BatchedKeyGenResponse:
        """Submit a *sequenced* batch; the reply echoes the sequence."""
        ...

    def stats(self) -> List[Tuple[str, int]]:
        """Fetch key-manager counters (plus wire counters over TCP)."""
        ...


class ProviderTransport(Protocol):
    """Client's view of the storage provider."""

    def put_chunks(self, request: PutChunks) -> PutChunksResponse:
        """Upload a batch of (fingerprint, ciphertext) pairs."""
        ...

    def get_chunks(self, request: GetChunks) -> Chunks:
        """Download chunks by fingerprint."""
        ...

    def put_recipes(self, request: PutRecipes) -> None:
        """Upload a file's sealed recipes."""
        ...

    def get_recipes(self, request: GetRecipes) -> PutRecipes:
        """Download a file's sealed recipes."""
        ...

    def stats(self) -> List[Tuple[str, int]]:
        """Fetch provider counters."""
        ...
