"""TEDStore key-manager service.

Wraps :class:`repro.core.ted.TedKeyManager` behind the batch request/response
interface the clients speak (one :class:`KeyGenRequest` per client batch,
§3.5), with a lock so multiple client threads can be served concurrently —
the frequency state (sketch + tuner) is shared across all clients, which is
what makes TED's frequencies *global* across the organization's users.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

from repro.core.ted import TedKeyManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.tedstore.km_state import KeyManagerStateStore
from repro.obs import tracing
from repro.tedstore.messages import (
    BatchedKeyGenRequest,
    BatchedKeyGenResponse,
    KeyGenRequest,
    KeyGenResponse,
)
from repro.tedstore.ratelimit import KeyGenRateLimiter


class KeygenStream:
    """Sequence floor of one keygen stream (DESIGN.md §10).

    A stream is one client transport — one TCP connection, or one
    in-process transport instance — and whoever owns that transport
    holds this object. The floor therefore dies with the connection,
    and two clients behind one host never share (or trip) it. The owner
    serializes calls, so no lock is needed.
    """

    def __init__(self) -> None:
        self.last: Optional[int] = None

    def admit(self, sequence: int) -> None:
        """Accept ``sequence`` as the stream's next batch.

        Batches of one stream must arrive in non-decreasing sequence
        order, because the sketch's frequency state accumulates in
        arrival order. A retry of the last-served sequence is accepted
        (replay re-updates the sketch — the fail-safe, over-estimating
        direction); sequence 0 starts a new upload.

        Raises:
            ValueError: on a sequence regression (a batch overtaken by a
                later one — the stream was reordered in transit).
        """
        if (
            sequence != 0
            and self.last is not None
            and sequence < self.last
        ):
            raise ValueError(
                f"stale keygen batch: sequence {sequence} after "
                f"{self.last} (stream reordered)"
            )
        self.last = sequence


class KeyManagerService:
    """Thread-safe key-generation service.

    Args:
        key_manager: the TED key manager to serve (BTED or FTED).
        rate_limiter: optional per-client request budget (§2.3's online
            brute-force defence); ``None`` disables limiting.
        state_store: optional durable sketch-state store. When given,
            the key manager's frequency state is restored from it at
            construction, and every acked batch is logged to it before
            the response is released (DESIGN.md §12).
    """

    def __init__(
        self,
        key_manager: Optional[TedKeyManager] = None,
        rate_limiter: Optional[KeyGenRateLimiter] = None,
        state_store: Optional["KeyManagerStateStore"] = None,
    ) -> None:
        self.key_manager = key_manager or TedKeyManager(
            secret=b"tedstore-default-secret",
            blowup_factor=1.05,
            batch_size=48_000,
            sketch_width=2**21,
        )
        self.rate_limiter = rate_limiter
        self.state_store = state_store
        self._lock = threading.Lock()
        self.restore_report = None
        if state_store is not None:
            self.restore_report = state_store.restore_into(self.key_manager)

    def handle_keygen(
        self,
        request: KeyGenRequest,
        client_id: str = "local",
        sequence: int = 0,
    ) -> KeyGenResponse:
        """Serve one batch of key-generation requests.

        With a state store configured, the batch is durably logged under
        the lock *before* the response is built: once the client sees the
        ack, a crashed-and-recovered key manager is guaranteed to have
        replayed the batch, so future seed decisions are unchanged.

        Raises:
            RateLimitExceeded: if a rate limiter is configured and this
                client exhausted its key-generation budget.
        """
        if self.rate_limiter is not None:
            self.rate_limiter.check(client_id, len(request.hash_vectors))
        batch = len(request.hash_vectors)
        if not batch:
            # Nothing to count, select or log: an empty batch has no
            # frequency effect, so it costs no log record, no fsync, no
            # snapshot cadence and no observer fan-out.
            with self._lock:
                return KeyGenResponse(seeds=[], current_t=self.key_manager.t)
        with tracing.get_tracer().span(
            "keymanager.keygen", attributes={"batch": batch}
        ), self._lock:
            seeds = self._seeds_for_batch(
                request.hash_vectors, client_id, sequence
            )
            return KeyGenResponse(seeds=seeds, current_t=self.key_manager.t)

    def _seeds_for_batch(
        self, vectors: List[List[int]], client_id: str, sequence: int
    ) -> List[bytes]:
        """Turn one batch into seeds, durable before return (lock held).

        The one step a sharded front overrides (DESIGN.md §15).
        """
        seeds = self.key_manager.generate_seeds(vectors)
        if self.state_store is not None:
            self.state_store.log_batch(
                client_id, sequence, vectors, key_manager=self.key_manager
            )
        return seeds

    def handle_keygen_batched(
        self,
        request: BatchedKeyGenRequest,
        client_id: str = "local",
        *,
        stream: KeygenStream,
    ) -> BatchedKeyGenResponse:
        """Serve one *sequenced* keygen batch of ``stream``.

        ``client_id`` (the peer host over TCP) keys rate limiting and
        the durable log; ``stream`` carries the ordering contract.

        Raises:
            ValueError: on a sequence regression inside the stream
                (:meth:`KeygenStream.admit`).
            RateLimitExceeded: per :meth:`handle_keygen`.
        """
        stream.admit(request.sequence)
        inner = self.handle_keygen(
            KeyGenRequest(hash_vectors=request.hash_vectors),
            client_id=client_id,
            sequence=request.sequence,
        )
        return BatchedKeyGenResponse(
            sequence=request.sequence,
            seeds=inner.seeds,
            current_t=inner.current_t,
        )

    def stats(self):
        """Counters for the evaluation harness."""
        with self._lock:
            return [
                ("requests", self.key_manager.stats.requests),
                ("batches_tuned", self.key_manager.stats.batches_tuned),
                ("current_t", self.key_manager.t),
            ]

    def close(self) -> None:
        """Snapshot pending state (if durable) and release file handles."""
        if self.state_store is not None:
            with self._lock:
                self.state_store.snapshot(self.key_manager)
            self.state_store.close()
