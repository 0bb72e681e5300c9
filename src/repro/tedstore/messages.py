"""TEDStore wire protocol: message framing and serialization.

Every message is framed as ``[length u32 BE][type u8][payload]`` where
length covers type + payload. Payloads are built from varints and
length-prefixed byte strings only — no pickle, no external formats — so the
protocol is compact, deterministic, and safe to parse from untrusted peers.

The protocol batches aggressively (key-generation requests, chunk uploads,
chunk downloads), matching TEDStore's optimization of combining small data
units into single transmissions (paper §4).

**Trace context (DESIGN.md §9).** A frame may carry an optional trace
context so one client operation can be followed across the key manager and
the provider. Presence is signalled by the high bit of the type byte
(:data:`MSG_FLAG_TRACE`); a flagged frame reads as::

    [length u32 BE][type u8 | 0x80][ctx_len uvarint][ctx bytes][payload]

The context bytes are opaque here (see :mod:`repro.obs.tracing` for their
format). There is one wire version: client connections always send the
flagged form, and readers also accept unflagged frames (probes, the
HELLO frame).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.utils.varint import (
    decode_uvarint,
    decode_vectors,
    encode_uvarint,
    encode_vectors,
)

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")

MSG_KEYGEN_REQUEST = 1
MSG_KEYGEN_RESPONSE = 2
MSG_PUT_CHUNKS = 3
MSG_PUT_CHUNKS_RESPONSE = 4
MSG_PUT_RECIPES = 5
MSG_OK = 6
MSG_GET_RECIPES = 7
MSG_RECIPES = 8
MSG_GET_CHUNKS = 9
MSG_CHUNKS = 10
MSG_ERROR = 11
MSG_STATS_REQUEST = 12
MSG_STATS_RESPONSE = 13
# Load-shedding reply (same payload as MSG_ERROR): the server refused to
# admit the request — max-inflight guard tripped or shutdown is draining.
# Unlike MSG_ERROR it is always safe to retry: the request was never
# dispatched, so no state changed.
MSG_BUSY = 14
# Sequenced keygen batch (what every upload sends, DESIGN.md §10): same
# payload as MSG_KEYGEN_REQUEST/RESPONSE plus a stream sequence number so
# the key manager can enforce in-order batch delivery — the frequency
# state the sketch accumulates is order-sensitive across batches.
MSG_KEYGEN_BATCH_REQUEST = 15
MSG_KEYGEN_BATCH_RESPONSE = 16
# Tenant handshake (multi-tenant provider, DESIGN.md §13): sent once per
# connection before any other request; binds the connection to a tenant
# namespace. A peer that rejects it fails the connection; a connection
# that never sends HELLO is served as the default tenant.
MSG_HELLO = 17
MSG_HELLO_OK = 18
# Typed not-found reply: unknown file names and fingerprints are client
# errors, not server faults — ``MSG_ERROR`` conflated the two (and leaked
# ``KeyError`` repr quotes).
MSG_NOT_FOUND = 19
# Health heartbeat (DESIGN.md §17). PING carries no payload; PONG names
# the responder's role and shard and echoes its ring epoch so probes
# double as a cheap staleness check (a shard answering with a *lower*
# epoch than the client's ring is serving a stale config).
MSG_PING = 20
MSG_PONG = 21
# KM sketch-observer shard protocol (DESIGN.md §17): the front fans each
# keygen batch's per-shard sub-batch to its observer process, which
# updates + logs its durable Count-Min shard and returns the frequency
# estimates the front's seed selection needs. Carries the client stream
# identity so observer-side replay of a retried batch stays idempotent.
MSG_SHARD_OBSERVE = 22
MSG_SHARD_ESTIMATES = 23

#: Human-readable message-type names (span labels, error messages).
MESSAGE_NAMES = {
    MSG_KEYGEN_REQUEST: "keygen",
    MSG_KEYGEN_RESPONSE: "keygen_response",
    MSG_PUT_CHUNKS: "put_chunks",
    MSG_PUT_CHUNKS_RESPONSE: "put_chunks_response",
    MSG_PUT_RECIPES: "put_recipes",
    MSG_OK: "ok",
    MSG_GET_RECIPES: "get_recipes",
    MSG_RECIPES: "recipes",
    MSG_GET_CHUNKS: "get_chunks",
    MSG_CHUNKS: "chunks",
    MSG_ERROR: "error",
    MSG_STATS_REQUEST: "stats_request",
    MSG_STATS_RESPONSE: "stats_response",
    MSG_BUSY: "busy",
    MSG_KEYGEN_BATCH_REQUEST: "keygen_batch",
    MSG_KEYGEN_BATCH_RESPONSE: "keygen_batch_response",
    MSG_HELLO: "hello",
    MSG_HELLO_OK: "hello_ok",
    MSG_NOT_FOUND: "not_found",
    MSG_PING: "ping",
    MSG_PONG: "pong",
    MSG_SHARD_OBSERVE: "shard_observe",
    MSG_SHARD_ESTIMATES: "shard_estimates",
}

#: High bit of the type byte: the frame carries a trace-context section.
MSG_FLAG_TRACE = 0x80

#: Trace contexts are small (tens of bytes); bound them defensively.
MAX_TRACE_CONTEXT_BYTES = 256

MAX_MESSAGE_BYTES = 256 << 20  # guard against absurd/corrupt frames


class ProtocolError(Exception):
    """Raised on malformed frames or payloads."""


def message_name(message_type: int) -> str:
    """Name of a message type (flag bits stripped), for spans and logs."""
    return MESSAGE_NAMES.get(message_type & ~MSG_FLAG_TRACE, f"type{message_type}")


def frame(
    message_type: int,
    payload: bytes,
    trace_context: Optional[bytes] = None,
) -> bytes:
    """Wrap a payload in the wire framing.

    Args:
        trace_context: opaque trace-context bytes to piggyback on the
            frame; sets :data:`MSG_FLAG_TRACE` on the type byte.
    """
    if trace_context:
        if len(trace_context) > MAX_TRACE_CONTEXT_BYTES:
            raise ProtocolError("trace context too large")
        body = (
            bytes([message_type | MSG_FLAG_TRACE])
            + encode_uvarint(len(trace_context))
            + trace_context
            + payload
        )
    else:
        body = bytes([message_type]) + payload
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError("message exceeds the frame size limit")
    return _LEN.pack(len(body)) + body


def read_frame_ex(recv_exact) -> Tuple[int, bytes, Optional[bytes]]:
    """Read one frame via a ``recv_exact(n) -> bytes`` callable.

    Returns:
        ``(message_type, payload, trace_context)`` — the flag bit is
        stripped from the type and ``trace_context`` is ``None`` on
        unflagged frames.

    Raises:
        ProtocolError: on oversized or truncated frames.
    """
    header = recv_exact(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length == 0 or length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"invalid frame length {length}")
    body = recv_exact(length)
    message_type = body[0]
    if not message_type & MSG_FLAG_TRACE:
        return message_type, body[1:], None
    try:
        ctx_len, offset = decode_uvarint(body, 1)
    except (ValueError, IndexError) as exc:
        raise ProtocolError("malformed trace-context length") from exc
    if ctx_len > MAX_TRACE_CONTEXT_BYTES or offset + ctx_len > len(body):
        raise ProtocolError("truncated trace context")
    context = bytes(body[offset : offset + ctx_len])
    return message_type & ~MSG_FLAG_TRACE, body[offset + ctx_len :], context


def read_frame(recv_exact) -> Tuple[int, bytes]:
    """Back-compat reader: :func:`read_frame_ex` minus the trace context."""
    message_type, payload, _ = read_frame_ex(recv_exact)
    return message_type, payload


class _Writer:
    """Payload builder."""

    def __init__(self) -> None:
        self._out = bytearray()

    def varint(self, value: int) -> "_Writer":
        self._out.extend(encode_uvarint(value))
        return self

    def blob(self, data: bytes) -> "_Writer":
        self._out.extend(encode_uvarint(len(data)))
        self._out.extend(data)
        return self

    def raw(self, data: bytes) -> "_Writer":
        """Append bytes with no length prefix (fixed-width fields)."""
        self._out.extend(data)
        return self

    def text(self, value: str) -> "_Writer":
        return self.blob(value.encode("utf-8"))

    def vectors(self, vectors: Sequence[Sequence[int]]) -> "_Writer":
        """A counted list of counted short-hash vectors."""
        self._out.extend(encode_vectors(vectors))
        return self

    def done(self) -> bytes:
        return bytes(self._out)


class _Reader:
    """Payload parser with bounds checking."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def varint(self) -> int:
        try:
            value, self._pos = decode_uvarint(self._data, self._pos)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return value

    def blob(self) -> bytes:
        length = self.varint()
        end = self._pos + length
        if end > len(self._data):
            raise ProtocolError("truncated payload blob")
        value = self._data[self._pos : end]
        self._pos = end
        return value

    def take(self, length: int) -> bytes:
        """Read exactly ``length`` raw bytes (fixed-width fields)."""
        end = self._pos + length
        if end > len(self._data):
            raise ProtocolError("truncated fixed-width field")
        value = self._data[self._pos : end]
        self._pos = end
        return value

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def vectors(self) -> List[List[int]]:
        """Inverse of :meth:`_Writer.vectors`."""
        try:
            vectors, self._pos = decode_vectors(self._data, self._pos)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return vectors

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ProtocolError("trailing bytes in payload")


# -- key generation -----------------------------------------------------------


@dataclass
class KeyGenRequest:
    """A batch of per-chunk short-hash vectors."""

    hash_vectors: List[List[int]] = field(default_factory=list)

    def encode(self) -> bytes:
        return _Writer().vectors(self.hash_vectors).done()

    @classmethod
    def decode(cls, payload: bytes) -> "KeyGenRequest":
        r = _Reader(payload)
        vectors = r.vectors()
        r.expect_end()
        return cls(hash_vectors=vectors)


@dataclass
class KeyGenResponse:
    """Key seeds for a batch, plus the key manager's current ``t``."""

    seeds: List[bytes] = field(default_factory=list)
    current_t: int = 1

    def encode(self) -> bytes:
        w = _Writer().varint(len(self.seeds))
        for seed in self.seeds:
            w.blob(seed)
        w.varint(self.current_t)
        return w.done()

    @classmethod
    def decode(cls, payload: bytes) -> "KeyGenResponse":
        r = _Reader(payload)
        count = r.varint()
        seeds = [r.blob() for _ in range(count)]
        t = r.varint()
        r.expect_end()
        return cls(seeds=seeds, current_t=t)


@dataclass
class BatchedKeyGenRequest:
    """A sequenced keygen batch (every client upload sends these).

    The ``sequence`` number identifies this batch's position in the
    client's keygen stream (0, 1, 2, ... per upload). The key manager
    rejects regressions — a batch arriving after a later one has already
    been served — because sketch frequencies accumulate in arrival order;
    retries of the *same* sequence are accepted (replay only re-updates
    the sketch, the fail-safe direction). Sequence 0 starts a new upload;
    sequences are only ever compared within one connection.
    """

    sequence: int = 0
    hash_vectors: List[List[int]] = field(default_factory=list)

    def encode(self) -> bytes:
        w = _Writer().varint(self.sequence)
        return w.vectors(self.hash_vectors).done()

    @classmethod
    def decode(cls, payload: bytes) -> "BatchedKeyGenRequest":
        r = _Reader(payload)
        sequence = r.varint()
        vectors = r.vectors()
        r.expect_end()
        return cls(sequence=sequence, hash_vectors=vectors)


@dataclass
class BatchedKeyGenResponse:
    """Seeds for a sequenced batch; echoes the request's sequence number.

    The echoed sequence lets the client detect a desynchronized stream
    (a reply paired with the wrong request) as a :class:`ProtocolError`
    instead of silently deriving keys from the wrong seeds.
    """

    sequence: int = 0
    seeds: List[bytes] = field(default_factory=list)
    current_t: int = 1

    def encode(self) -> bytes:
        w = _Writer().varint(self.sequence).varint(len(self.seeds))
        for seed in self.seeds:
            w.blob(seed)
        w.varint(self.current_t)
        return w.done()

    @classmethod
    def decode(cls, payload: bytes) -> "BatchedKeyGenResponse":
        r = _Reader(payload)
        sequence = r.varint()
        count = r.varint()
        seeds = [r.blob() for _ in range(count)]
        t = r.varint()
        r.expect_end()
        return cls(sequence=sequence, seeds=seeds, current_t=t)


# -- chunk upload/download ---------------------------------------------------


@dataclass
class PutChunks:
    """A batch of (fingerprint, ciphertext chunk) pairs to store."""

    chunks: List[Tuple[bytes, bytes]] = field(default_factory=list)

    def encode(self) -> bytes:
        w = _Writer().varint(len(self.chunks))
        for fingerprint, data in self.chunks:
            w.blob(fingerprint).blob(data)
        return w.done()

    @classmethod
    def decode(cls, payload: bytes) -> "PutChunks":
        r = _Reader(payload)
        count = r.varint()
        chunks = [(r.blob(), r.blob()) for _ in range(count)]
        r.expect_end()
        return cls(chunks=chunks)


@dataclass
class PutChunksResponse:
    """Dedup outcome of a chunk batch."""

    stored: int = 0
    duplicates: int = 0

    def encode(self) -> bytes:
        return _Writer().varint(self.stored).varint(self.duplicates).done()

    @classmethod
    def decode(cls, payload: bytes) -> "PutChunksResponse":
        r = _Reader(payload)
        stored = r.varint()
        duplicates = r.varint()
        r.expect_end()
        return cls(stored=stored, duplicates=duplicates)


@dataclass
class GetChunks:
    """Fingerprints of chunks to fetch (download path)."""

    fingerprints: List[bytes] = field(default_factory=list)

    def encode(self) -> bytes:
        w = _Writer().varint(len(self.fingerprints))
        for fingerprint in self.fingerprints:
            w.blob(fingerprint)
        return w.done()

    @classmethod
    def decode(cls, payload: bytes) -> "GetChunks":
        r = _Reader(payload)
        count = r.varint()
        fps = [r.blob() for _ in range(count)]
        r.expect_end()
        return cls(fingerprints=fps)


@dataclass
class Chunks:
    """Chunk payloads, in request order."""

    chunks: List[bytes] = field(default_factory=list)

    def encode(self) -> bytes:
        w = _Writer().varint(len(self.chunks))
        for data in self.chunks:
            w.blob(data)
        return w.done()

    @classmethod
    def decode(cls, payload: bytes) -> "Chunks":
        r = _Reader(payload)
        count = r.varint()
        chunks = [r.blob() for _ in range(count)]
        r.expect_end()
        return cls(chunks=chunks)


# -- recipes --------------------------------------------------------------------


@dataclass
class PutRecipes:
    """Sealed file + key recipes for an uploaded file."""

    file_name: str = ""
    sealed_file_recipe: bytes = b""
    sealed_key_recipe: bytes = b""

    def encode(self) -> bytes:
        return (
            _Writer()
            .text(self.file_name)
            .blob(self.sealed_file_recipe)
            .blob(self.sealed_key_recipe)
            .done()
        )

    @classmethod
    def decode(cls, payload: bytes) -> "PutRecipes":
        r = _Reader(payload)
        name = r.text()
        file_recipe = r.blob()
        key_recipe = r.blob()
        r.expect_end()
        return cls(name, file_recipe, key_recipe)


@dataclass
class GetRecipes:
    """Request the sealed recipes for a file."""

    file_name: str = ""

    def encode(self) -> bytes:
        return _Writer().text(self.file_name).done()

    @classmethod
    def decode(cls, payload: bytes) -> "GetRecipes":
        r = _Reader(payload)
        name = r.text()
        r.expect_end()
        return cls(file_name=name)


# -- tenant handshake ---------------------------------------------------------


@dataclass
class Hello:
    """Bind this connection to a tenant namespace (DESIGN.md §13).

    Sent once per connection, before any other request. ``auth_token``
    is checked against the provider's configured per-tenant tokens (an
    empty token is valid for tenants with no token configured).
    """

    tenant: str = ""
    auth_token: bytes = b""

    def encode(self) -> bytes:
        return _Writer().text(self.tenant).blob(self.auth_token).done()

    @classmethod
    def decode(cls, payload: bytes) -> "Hello":
        r = _Reader(payload)
        tenant = r.text()
        token = r.blob()
        r.expect_end()
        return cls(tenant=tenant, auth_token=token)


@dataclass
class HelloOk:
    """Handshake acknowledgement: echoes the tenant, states the policy.

    ``cross_user_dedup`` tells the client whether its uploads may
    deduplicate against other tenants' chunks — the confidentiality
    trade-off the server operator chose (DESIGN.md §13).
    """

    tenant: str = ""
    cross_user_dedup: bool = False

    def encode(self) -> bytes:
        return (
            _Writer()
            .text(self.tenant)
            .varint(1 if self.cross_user_dedup else 0)
            .done()
        )

    @classmethod
    def decode(cls, payload: bytes) -> "HelloOk":
        r = _Reader(payload)
        tenant = r.text()
        flag = r.varint()
        r.expect_end()
        return cls(tenant=tenant, cross_user_dedup=bool(flag))


@dataclass
class Pong:
    """Heartbeat reply: who answered and which ring epoch it serves.

    ``shard`` is ``-1`` for unsharded services (the HELLO-era single
    provider/KM), so a probe can tell "wrong process on this port"
    from "shard came back".
    """

    role: str = ""
    shard: int = -1
    epoch: int = 0

    def encode(self) -> bytes:
        # shard is offset by one so -1 (unsharded) fits in a uvarint.
        return (
            _Writer()
            .text(self.role)
            .varint(self.shard + 1)
            .varint(self.epoch)
            .done()
        )

    @classmethod
    def decode(cls, payload: bytes) -> "Pong":
        r = _Reader(payload)
        role = r.text()
        shard = r.varint() - 1
        epoch = r.varint()
        r.expect_end()
        return cls(role=role, shard=shard, epoch=epoch)


@dataclass
class ShardObserveRequest:
    """One shard's slice of a sequenced keygen batch (front → observer).

    ``client_id``/``sequence`` name the *front's* position in the
    client's keygen stream; the observer logs them with the sub-batch
    so a replay after a crash (same identity, same vectors) re-updates
    the durable sketch idempotently, exactly like the in-process
    shard stores (DESIGN.md §15).
    """

    client_id: str = ""
    sequence: int = 0
    hash_vectors: List[List[int]] = field(default_factory=list)

    def encode(self) -> bytes:
        return (
            _Writer()
            .text(self.client_id)
            .varint(self.sequence)
            .vectors(self.hash_vectors)
            .done()
        )

    @classmethod
    def decode(cls, payload: bytes) -> "ShardObserveRequest":
        r = _Reader(payload)
        client_id = r.text()
        sequence = r.varint()
        vectors = r.vectors()
        r.expect_end()
        return cls(
            client_id=client_id, sequence=sequence, hash_vectors=vectors
        )


@dataclass
class ShardObserveResponse:
    """Per-chunk frequency estimates for one observed sub-batch."""

    estimates: List[int] = field(default_factory=list)

    def encode(self) -> bytes:
        w = _Writer().varint(len(self.estimates))
        for estimate in self.estimates:
            w.varint(estimate)
        return w.done()

    @classmethod
    def decode(cls, payload: bytes) -> "ShardObserveResponse":
        r = _Reader(payload)
        count = r.varint()
        estimates = [r.varint() for _ in range(count)]
        r.expect_end()
        return cls(estimates=estimates)


# -- typed not-found ----------------------------------------------------------

#: ``MSG_NOT_FOUND`` kinds: what class of name failed to resolve.
NOT_FOUND_FILE = 0
NOT_FOUND_CHUNK = 1


def encode_not_found(kind: int, message: str) -> bytes:
    """Payload for MSG_NOT_FOUND: a kind tag plus a human message."""
    return _Writer().varint(kind).text(message).done()


def decode_not_found(payload: bytes) -> Tuple[int, str]:
    """Inverse of :func:`encode_not_found`."""
    r = _Reader(payload)
    kind = r.varint()
    message = r.text()
    r.expect_end()
    return kind, message


# -- misc ------------------------------------------------------------------------


def encode_error(message: str) -> bytes:
    """Payload for MSG_ERROR."""
    return _Writer().text(message).done()


def decode_error(payload: bytes) -> str:
    """Inverse of :func:`encode_error`."""
    r = _Reader(payload)
    message = r.text()
    r.expect_end()
    return message


_STATS_INT = 0
_STATS_FLOAT = 1


def encode_stats(
    pairs: Sequence[Tuple[str, Union[int, float]]]
) -> bytes:
    """Payload for MSG_STATS_RESPONSE: ordered (name, value) metrics.

    Each value is tagged: non-negative integers travel as varints, and
    everything else (histogram quantiles, ratios, negative values) as an
    IEEE-754 double — so registry snapshots round-trip exactly.
    """
    w = _Writer().varint(len(pairs))
    for name, value in pairs:
        w.text(name)
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            w.varint(_STATS_INT).varint(value)
        else:
            w.varint(_STATS_FLOAT)
            w.raw(_F64.pack(float(value)))
    return w.done()


def decode_stats(payload: bytes) -> List[Tuple[str, Union[int, float]]]:
    """Inverse of :func:`encode_stats`.

    Integer-tagged values decode as ``int``, float-tagged as ``float``.

    Raises:
        ProtocolError: on truncated payloads or unknown value tags.
    """
    r = _Reader(payload)
    count = r.varint()
    pairs: List[Tuple[str, Union[int, float]]] = []
    for _ in range(count):
        name = r.text()
        tag = r.varint()
        if tag == _STATS_INT:
            pairs.append((name, r.varint()))
        elif tag == _STATS_FLOAT:
            (value,) = _F64.unpack(r.take(_F64.size))
            pairs.append((name, value))
        else:
            raise ProtocolError(f"unknown stats value tag {tag}")
    r.expect_end()
    return pairs
