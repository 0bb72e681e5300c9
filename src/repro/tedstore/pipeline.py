"""The client upload path: three stage bodies, two schedulers (DESIGN.md §10).

An upload is chunk → fingerprint → short-hash → key seeding → key
derivation → encrypt → write (Figure 1). Each step exists once, as one
of three stage bodies on :class:`PipelinedUploader`:

* **prepare** — fingerprint and short-hash a run of chunks, fetch their
  seeds in one *sequenced* KEYGEN round trip, derive the per-chunk keys
  (:meth:`~PipelinedUploader.derive_keys`), then resolve what needs no
  encryption. Keygen is strictly ordered and single in flight: sketch
  frequencies and probabilistic seed selection depend on the order
  chunks reach the key manager. With a
  :class:`~repro.storage.dedup.FingerprintCache` configured, a
  (plaintext fingerprint, seed) hit proves the exact ciphertext is
  already stored, so the chunk skips encryption *and* upload; repeats of
  a pair already seen in this run are suppressed too (in-flight
  aliases, resolved from the first occurrence at sequencing time).
* **encrypt** — encrypt the misses and fingerprint the ciphertexts. A
  pure function of (profile, key, chunk).
* **sequence** — put resolved chunks back into file order, cut PUT
  batches every ``batch_size`` chunks, send them one at a time (ordering
  is what keeps container layout byte-identical), insert acknowledged
  chunks into the cache, and build the file/key recipes in chunk order.

The schedulers differ only in *who calls the bodies*:

* **inline** (``workers == 1``) — the caller's thread runs prepare →
  encrypt → sequence back to back per ``batch_size`` batch. No thread,
  no queue: on small files thread start/join and queue hand-offs cost
  more than there is to overlap.
* **threaded** (otherwise) — the caller's thread draws ``batch_size``
  batches and prepares each one (keygen stays ordered and single in
  flight); ``workers`` executor threads encrypt the misses; one writer
  thread sequences the batches in submission order. At most
  :data:`PIPELINE_DEPTH` batches wait to be written (the backpressure:
  memory stays proportional to the depth, never to the file size). The
  wire and the CPU overlap.

Stored state is the same either way: keys depend only on the order
chunks reach the key manager, ciphertexts only on (key, chunk), and PUT
batches are cut from the re-sequenced stream
(``tests/integration/test_pipeline_differential.py`` checks both
schedulers against a straight-line oracle).

A stage error reaches the caller as itself from either scheduler. In
threaded mode it is the first error in file order; every executor is
shut down and joined before the call returns, and nothing is sent
after the error is seen.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.keygen import derive_key
from repro.crypto.hashes import digest
from repro.crypto.murmur3 import short_hashes
from repro.obs import metrics as obs_metrics, tracing
from repro.storage.dedup import FingerprintCache
from repro.storage.recipe import FileRecipe, KeyRecipe
from repro.tedstore.messages import BatchedKeyGenRequest, PutChunks

_REGISTRY = obs_metrics.get_registry()
_WORKERS_BUSY = _REGISTRY.gauge(
    "ted_pipeline_workers_busy",
    "Encrypt or decrypt jobs currently running on the client",
)
_PIPELINE_CHUNKS = _REGISTRY.counter(
    "ted_pipeline_chunks_total",
    "Chunks leaving the pipeline, by path taken",
    labelnames=("path",),
)


#: The backpressure of both threaded schedulers: upload batches waiting
#: to be written, and ``PIPELINE_DEPTH × workers`` outstanding decrypt
#: jobs on restore. Memory stays proportional to it, never to file size.
PIPELINE_DEPTH = 4


def batched(chunks: Iterable[bytes], size: int) -> Iterator[List[bytes]]:
    """Consecutive lists of up to ``size`` chunks, drawn lazily."""
    iterator = iter(chunks)
    while True:
        batch = list(islice(iterator, size))
        if not batch:
            return
        yield batch


class PipelineError(RuntimeError):
    """The pipeline broke its own invariant (chunks lost between stages).

    Stage errors are never wrapped in this: they reach the caller as
    themselves.
    """


@dataclass
class _Resolved:
    """One chunk's outcome, keyed by its position in the file.

    ``cipher_fp is None`` marks an in-flight alias: the same
    (fingerprint, seed) pair was dispatched earlier in this run, so the
    ciphertext fingerprint is copied from that first occurrence when the
    chunk is sequenced — the first occurrence always precedes the
    alias in file order. ``ciphertext is None`` (with a cipher_fp)
    marks a fingerprint-cache hit: nothing to upload at all.
    """

    index: int
    size: int
    key: bytes
    cipher_fp: Optional[bytes]
    ciphertext: Optional[bytes]
    fingerprint: bytes
    seed: bytes


#: One encrypt job entry: (file index, chunk, fingerprint, seed, key).
_Miss = Tuple[int, bytes, bytes, bytes, bytes]


def _encrypt_job(profile, job: List[_Miss]) -> List[_Resolved]:
    """Encrypt one job and fingerprint its ciphertexts."""
    algorithm = profile.hash_algorithm
    resolved: List[_Resolved] = []
    for index, chunk, fp, seed, key in job:
        ciphertext = profile.encrypt(key, chunk)
        resolved.append(
            _Resolved(
                index=index,
                size=len(chunk),
                key=key,
                cipher_fp=digest(ciphertext, algorithm),
                ciphertext=ciphertext,
                fingerprint=fp,
                seed=seed,
            )
        )
    return resolved


class PipelinedUploader:
    """One upload execution (single use).

    Args:
        client: the owning :class:`~repro.tedstore.client.TedStoreClient`
            — supplies transports, profile, sketch geometry, batch size,
            worker count, and the optional fingerprint cache.
    """

    def __init__(self, client) -> None:
        self.client = client
        # prepare state: next keygen sequence number, file index of the
        # next chunk, and the (fingerprint, seed) pairs already sent to
        # encryption this run (cache-enabled runs only).
        self._keygen_sequence = 0
        self._base_index = 0
        self._first_seen: Set[bytes] = set()
        # sequence state. ``_resolved_fp`` holds the ciphertext
        # fingerprint of every sequenced (fingerprint, seed) pair, for
        # resolving aliases: sequencing is in chunk order, so a pair's
        # first occurrence is always recorded before any alias of it.
        self._buffered: Dict[int, _Resolved] = {}
        self._next_index = 0
        self._put_batch: List[_Resolved] = []
        self._resolved_fp: Dict[bytes, bytes] = {}
        # Outputs.
        self.file_recipe: Optional[FileRecipe] = None
        self.key_recipe = KeyRecipe()
        self.stored = 0
        self.duplicates = 0
        self.cache_hits = 0
        self.logical_bytes = 0
        self.chunk_count = 0

    # -- stage bodies ---------------------------------------------------------

    def derive_keys(
        self, chunks: List[bytes]
    ) -> Tuple[List[bytes], List[bytes], List[bytes]]:
        """Fingerprint → short-hash → sequenced keygen → derive.

        Returns per-chunk ``(fingerprints, seeds, keys)``. Calls on one
        uploader form one keygen stream: sequence 0, 1, 2, ….
        """
        client = self.client
        algorithm = client.profile.hash_algorithm
        timer = client.timer
        with timer.stage("fingerprinting"):
            fingerprints = [digest(c, algorithm) for c in chunks]
        # Short hashes are computed over the chunk *fingerprint* rather
        # than the raw chunk: the client has just computed the
        # fingerprint anyway, the counter mapping is statistically
        # identical, and it keeps the MurmurHash pass off the full-data
        # path (the C++ prototype murmurs whole chunks because Murmur is
        # nearly free there; in Python it is not).
        with timer.stage("hashing"):
            hash_vectors = [
                short_hashes(fp, client.sketch_rows, client.sketch_width)
                for fp in fingerprints
            ]
        with timer.stage("key seeding"):
            seeds = client.key_manager.keygen_batched(
                BatchedKeyGenRequest(
                    sequence=self._keygen_sequence,
                    hash_vectors=hash_vectors,
                )
            ).seeds
        self._keygen_sequence += 1
        if len(seeds) != len(chunks):
            raise RuntimeError(
                "key manager returned a mismatched seed batch"
            )
        with timer.stage("key derivation"):
            keys = [
                derive_key(seed, fp, algorithm)
                for seed, fp in zip(seeds, fingerprints)
            ]
        return fingerprints, seeds, keys

    def prepare(
        self, chunks: List[bytes]
    ) -> Tuple[List[_Resolved], List[_Miss]]:
        """Derive keys for the next run of chunks; split off the misses.

        Returns ``(resolved, misses)``: chunks that need no encryption
        (cache hits and in-flight aliases) and encrypt-job entries for
        the rest. Alias suppression is tied to the cache because, like a
        cache hit, an alias relaxes the provider's offered-chunk
        counters; without a cache every chunk is a miss.
        """
        fingerprints, seeds, keys = self.derive_keys(chunks)
        cache = self.client.fingerprint_cache
        base_index = self._base_index
        self._base_index += len(chunks)
        if cache is None:
            return [], [
                (base_index + offset, chunk, fp, seed, key)
                for offset, (chunk, fp, seed, key) in enumerate(
                    zip(chunks, fingerprints, seeds, keys)
                )
            ]
        first_seen = self._first_seen
        resolved: List[_Resolved] = []
        misses: List[_Miss] = []
        cache_hit_count = 0
        for offset, (chunk, fp, seed, key) in enumerate(
            zip(chunks, fingerprints, seeds, keys)
        ):
            index = base_index + offset
            cipher_fp = cache.lookup(fp, seed)
            if cipher_fp is not None:
                cache_hit_count += 1
            else:
                pair = FingerprintCache.key(fp, seed)
                if pair not in first_seen:
                    first_seen.add(pair)
                    misses.append((index, chunk, fp, seed, key))
                    continue
            resolved.append(
                _Resolved(
                    index=index,
                    size=len(chunk),
                    key=key,
                    cipher_fp=cipher_fp,
                    ciphertext=None,
                    fingerprint=fp,
                    seed=seed,
                )
            )
        if cache_hit_count:
            _PIPELINE_CHUNKS.labels(path="cache_hit").inc(cache_hit_count)
        if len(resolved) > cache_hit_count:
            _PIPELINE_CHUNKS.labels(path="inflight_dup").inc(
                len(resolved) - cache_hit_count
            )
        return resolved, misses

    def encrypt(self, job: List[_Miss]) -> List[_Resolved]:
        """Encrypt one job of misses; fingerprint the ciphertexts."""
        with self.client.timer.stage("encryption"), _WORKERS_BUSY.track():
            resolved = _encrypt_job(self.client.profile, job)
        _PIPELINE_CHUNKS.labels(path="encrypted").inc(len(resolved))
        return resolved

    def sequence(self, entries: List[_Resolved]) -> None:
        """Sequence resolved chunks; PUT every full ``batch_size`` batch."""
        cache = self.client.fingerprint_cache
        buffered = self._buffered
        for entry in entries:
            buffered[entry.index] = entry
        while self._next_index in buffered:
            entry = buffered.pop(self._next_index)
            self._next_index += 1
            if entry.cipher_fp is None:
                # In-flight alias: a duplicate of a pair dispatched
                # earlier this run. The provider would have deduped it
                # anyway; count it as a duplicate (not a cache hit — the
                # cache never saw it).
                entry.cipher_fp = self._resolved_fp[
                    FingerprintCache.key(entry.fingerprint, entry.seed)
                ]
                self.duplicates += 1
            else:
                if cache is not None:
                    self._resolved_fp[
                        FingerprintCache.key(entry.fingerprint, entry.seed)
                    ] = entry.cipher_fp
                if entry.ciphertext is None:
                    self.cache_hits += 1
                    self.duplicates += 1
            self.file_recipe.add(entry.cipher_fp, entry.size)
            self.key_recipe.add(entry.key)
            self.logical_bytes += entry.size
            self._put_batch.append(entry)
            if len(self._put_batch) >= self.client.batch_size:
                self._flush()

    def _flush(self) -> None:
        """PUT the sequenced chunks that carry a ciphertext."""
        client = self.client
        cache = client.fingerprint_cache
        batch = self._put_batch
        to_send = [
            (e.cipher_fp, e.ciphertext)
            for e in batch
            if e.ciphertext is not None
        ]
        if to_send:
            with client.timer.stage("write"):
                response = client.provider.put_chunks(
                    PutChunks(chunks=to_send)
                )
            self.stored += response.stored
            self.duplicates += response.duplicates
        if cache is not None:
            for e in batch:
                if e.ciphertext is not None:
                    # Coherence rule: insert only after the provider
                    # acknowledged the batch (DESIGN.md §10).
                    cache.insert(e.fingerprint, e.seed, e.cipher_fp)
        batch.clear()

    def _finish(self) -> None:
        """PUT the last partial batch once every chunk is sequenced."""
        if self._buffered:
            raise PipelineError(
                f"pipeline lost chunks: {len(self._buffered)} left "
                "unsequenced"
            )
        self._flush()
        self.chunk_count = self._next_index

    # -- schedulers -----------------------------------------------------------

    def run(self, file_name: str, chunks: Iterable[bytes]) -> None:
        """Upload every chunk (or raise the first stage error).

        On return, recipes and counters are populated; on failure every
        thread this call started has exited.
        """
        client = self.client
        self.file_recipe = FileRecipe(file_name=file_name)
        if client.workers > 1:
            self._run_threaded(file_name, chunks)
        else:
            self._run_inline(chunks)

    def _run_inline(self, chunks: Iterable[bytes]) -> None:
        """The caller's thread runs every stage, batch by batch."""
        client = self.client
        for batch in batched(chunks, client.batch_size):
            resolved, misses = self.prepare(batch)
            if misses:
                resolved += self.encrypt(misses)
            self.sequence(resolved)
        self._finish()

    def _run_threaded(self, file_name: str, chunks: Iterable[bytes]) -> None:
        """Prepare here; encrypt and write on executors.

        The caller's thread prepares each ``batch_size`` batch, so keygen
        stays ordered and single in flight. The misses go to the encrypt
        executor as contiguous jobs, and one write task per batch goes to
        a one-thread writer whose FIFO order is file order. At most
        :data:`PIPELINE_DEPTH` batches wait to be written.
        """
        client = self.client
        workers = client.workers
        encryptors = ThreadPoolExecutor(
            workers, thread_name_prefix="ted-pipeline-encrypt"
        )
        writer = ThreadPoolExecutor(1, thread_name_prefix="ted-pipeline-write")
        writes: Deque[Future] = deque()
        try:
            with tracing.get_tracer().span(
                "client.pipeline",
                attributes={"workers": workers, "file": file_name},
            ):
                for batch in batched(chunks, client.batch_size):
                    # Writes complete in order, so a failed one is seen
                    # here before the next keygen is sent.
                    while writes and writes[0].done():
                        writes.popleft().result()
                    resolved, misses = self.prepare(batch)
                    size = max(32, -(-len(misses) // workers))
                    jobs = [
                        encryptors.submit(self.encrypt, misses[s : s + size])
                        for s in range(0, len(misses), size)
                    ]
                    previous = writes[-1] if writes else None
                    writes.append(
                        writer.submit(self._write, previous, resolved, jobs)
                    )
                    if len(writes) > PIPELINE_DEPTH:
                        writes.popleft().result()
                while writes:
                    writes.popleft().result()
                self._finish()
        finally:
            # Encryptors first: a write still waiting on a cancelled job
            # then ends without its PUT.
            for executor in (encryptors, writer):
                executor.shutdown(wait=True, cancel_futures=True)

    def _write(
        self,
        previous: Optional[Future],
        resolved: List[_Resolved],
        jobs: List[Future],
    ) -> None:
        """Writer task: sequence one batch once its encrypt jobs are done.

        ``previous`` is the batch before it, already finished on the one
        writer thread; its failure is re-raised so nothing after it is
        sent.
        """
        if previous is not None:
            previous.result()
        for job in jobs:
            resolved += job.result()
        self.sequence(resolved)
