"""The client restore path: three stage bodies, two schedulers (DESIGN.md §10).

The mirror of :mod:`repro.tedstore.pipeline`. Each step of a restore
exists once, as a stage body on :class:`PipelinedDownloader`:

* **fetch** — walk the file recipe in ``batch_size`` slices; request
  each slice's ciphertexts with one ``GetChunks`` round trip and return
  the decrypt jobs. Repeated fingerprints within one restore (the norm
  on deduplicated data) are fetched *and* decrypted only once: every
  ``(cipher_fp, key)`` pair dispatched this run is remembered, and
  repeats become aliases whose plaintext is copied from the first
  occurrence at assembly. Keying on the pair — not the fingerprint
  alone — means aliasing can never change output, even if two keys ever
  mapped to one ciphertext. Every reply is length-checked against its
  request, so a short reply raises ``ValueError`` instead of silently
  truncating the file.
* **decrypt** — check each first-occurrence ciphertext against the
  fingerprint it was fetched by (``ValueError`` on mismatch: the store
  is not trusted to return what it was asked for), decrypt it, verify
  the plaintext against the recipe size, and write it into its
  recipe-order slot.
* **assemble** — resolve the aliases and join the slots.

Scheduling follows the upload path (same predicate, ``workers > 1``):
**inline**, the caller's thread alternates fetch and decrypt per batch
and starts no thread; **threaded**, the caller's thread fetches and
submits decrypt jobs to a ``workers``-thread executor, at most
``PIPELINE_DEPTH × workers`` outstanding, so batch *i+1*'s round trip
hides behind batch *i*'s decryption — waiting on the jobs is the
re-sequencing barrier.
Output is byte-identical either way. A stage error reaches the caller
as itself from both; in threaded mode it is the first error in file
order, the executor is joined before the call returns, and no GET is
sent after the error is seen.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.hashes import digest
from repro.obs import tracing
from repro.tedstore.pipeline import (
    PIPELINE_DEPTH,
    PipelineError,
    _PIPELINE_CHUNKS,
    _WORKERS_BUSY,
)

#: One decrypt job: (recipe index, ciphertext fingerprint, chunk key,
#: expected plaintext size).
_Job = Tuple[int, bytes, bytes, int]


def _pair(cipher_fp: bytes, key: bytes) -> bytes:
    """Memo key for one (ciphertext fingerprint, chunk key) pair."""
    return cipher_fp + b"\x00" + key


class PipelinedDownloader:
    """One restore execution (single use).

    Args:
        client: the owning :class:`~repro.tedstore.client.TedStoreClient`
            — supplies the provider transport, cipher profile, batch
            size, and worker count.
    """

    def __init__(self, client) -> None:
        self.client = client
        # Ciphertexts fetched this run, keyed by ciphertext fingerprint;
        # filled by fetch *before* any job referencing them is handed
        # on, so decrypt reads without locking.
        self._ciphertexts: Dict[bytes, bytes] = {}
        self._dispatched: Set[bytes] = set()
        # (cipher_fp, key) -> plaintext, written by decrypt; aliases
        # are resolved from it at assembly.
        self._memo: Dict[bytes, bytes] = {}
        self._alias_jobs: List[_Job] = []
        self._pieces: List[Optional[bytes]] = []
        self._count_lock = threading.Lock()
        # Counters (exposed for tests).
        self.fetched = 0  # unique ciphertexts fetched from the provider
        self.aliases = 0  # repeats served from the decrypt memo
        self.decrypted = 0  # ciphertexts actually decrypted

    # -- stage bodies ---------------------------------------------------------

    def fetch(
        self,
        start: int,
        entries: Sequence[Tuple[bytes, int]],
        keys: Sequence[bytes],
    ) -> List[_Job]:
        """Fetch one recipe slice's new ciphertexts; return its jobs."""
        client = self.client
        jobs: List[_Job] = []
        want: List[bytes] = []
        want_set: Set[bytes] = set()
        alias_count = 0
        for offset, ((fp, size), key) in enumerate(zip(entries, keys)):
            index = start + offset
            pair = _pair(fp, key)
            if pair in self._dispatched:
                alias_count += 1
                self._alias_jobs.append((index, fp, key, size))
                continue
            self._dispatched.add(pair)
            if fp not in self._ciphertexts and fp not in want_set:
                want_set.add(fp)
                want.append(fp)
            jobs.append((index, fp, key, size))
        if alias_count:
            _PIPELINE_CHUNKS.labels(path="restore_alias").inc(alias_count)
        if want:
            with client.timer.stage("chunk fetch"):
                chunks = client._get_chunks_checked(want)
            self._ciphertexts.update(zip(want, chunks))
            self.fetched += len(want)
            _PIPELINE_CHUNKS.labels(path="fetched").inc(len(want))
        return jobs

    def decrypt(self, job: List[_Job]) -> None:
        """Check, then decrypt first-occurrence jobs into their slots."""
        profile = self.client.profile
        algorithm = profile.hash_algorithm
        with self.client.timer.stage("decryption"), _WORKERS_BUSY.track():
            for index, fp, key, size in job:
                ciphertext = self._ciphertexts[fp]
                # The stream ciphers carry no MAC: a ciphertext that is
                # not the one its fingerprint names would decrypt to
                # wrong bytes of the right length.
                if digest(ciphertext, algorithm) != fp:
                    raise ValueError(
                        f"chunk {fp.hex()} does not match its fingerprint"
                    )
                plaintext = profile.decrypt(key, ciphertext)
                if len(plaintext) != size:
                    raise ValueError(
                        f"chunk {fp.hex()} decrypted to "
                        f"{len(plaintext)} bytes, expected {size}"
                    )
                self._memo[_pair(fp, key)] = plaintext
                self._pieces[index] = plaintext
        _PIPELINE_CHUNKS.labels(path="decrypted").inc(len(job))
        with self._count_lock:
            self.decrypted += len(job)

    def assemble(self) -> bytes:
        """Resolve aliases from the memo; join the slots in recipe order.

        Runs after every first occurrence has been decrypted.
        """
        for index, fp, key, size in self._alias_jobs:
            plaintext = self._memo.get(_pair(fp, key))
            if plaintext is None:
                raise PipelineError(
                    f"restore pipeline lost the first occurrence of "
                    f"chunk {fp.hex()}"
                )
            if len(plaintext) != size:
                raise ValueError(
                    f"chunk {fp.hex()} decrypted to {len(plaintext)} "
                    f"bytes, expected {size}"
                )
            self._pieces[index] = plaintext
        self.aliases = len(self._alias_jobs)
        missing = sum(1 for piece in self._pieces if piece is None)
        if missing:
            raise PipelineError(
                f"restore pipeline lost chunks: {missing} slots empty"
            )
        return b"".join(self._pieces)  # type: ignore[arg-type]

    # -- schedulers -----------------------------------------------------------

    def run(
        self,
        file_name: str,
        entries: Sequence[Tuple[bytes, int]],
        keys: Sequence[bytes],
    ) -> bytes:
        """Restore one file's plaintext (or raise the first stage error).

        ``entries`` and ``keys`` come from the already-unsealed file/key
        recipes and must agree on length (the client validates before
        calling).
        """
        client = self.client
        self._pieces = [None] * len(entries)
        batch_size = client.batch_size
        slices = (
            (start, entries[start : start + batch_size],
             keys[start : start + batch_size])
            for start in range(0, len(entries), batch_size)
        )
        if client.workers > 1:
            self._run_threaded(file_name, slices)
        else:
            for piece in slices:
                jobs = self.fetch(*piece)
                if jobs:
                    self.decrypt(jobs)
        return self.assemble()

    def _run_threaded(self, file_name: str, slices) -> None:
        """Fetch from the caller's thread; decrypt on an executor.

        At most ``PIPELINE_DEPTH × workers`` decrypt jobs are
        outstanding, so memory stays proportional to the depth, never to
        the file size. Waiting on the jobs in submission order yields the
        first error in file order; joining them is the re-sequencing
        barrier.
        """
        workers = self.client.workers
        limit = PIPELINE_DEPTH * workers
        decryptors = ThreadPoolExecutor(
            workers, thread_name_prefix="ted-pipeline-decrypt"
        )
        pending: Deque[Future] = deque()
        try:
            with tracing.get_tracer().span(
                "client.restore_pipeline",
                attributes={"workers": workers, "file": file_name},
            ):
                for piece in slices:
                    while pending and pending[0].done():
                        pending.popleft().result()
                    jobs = self.fetch(*piece)
                    # Contiguous slices; slot indices restore order.
                    size = max(32, -(-len(jobs) // workers))
                    for s in range(0, len(jobs), size):
                        if len(pending) >= limit:
                            pending.popleft().result()
                        pending.append(
                            decryptors.submit(self.decrypt, jobs[s : s + size])
                        )
                while pending:
                    pending.popleft().result()
        finally:
            decryptors.shutdown(wait=True, cancel_futures=True)
