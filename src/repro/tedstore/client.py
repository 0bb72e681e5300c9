"""TEDStore client: chunk, fingerprint, hash, key-gen, encrypt, upload.

The client implements the full upload/download pipeline of Figure 1:

1. **Chunking** — content-defined chunking of the file data (§4).
2. **Fingerprinting** — cryptographic hash of each plaintext chunk.
3. **Hashing** — one MurmurHash3 per chunk, split into ``r`` short hashes.
4. **Key seeding** — short hashes go to the key manager in batches
   (default 48,000 per batch, §3.5); seeds come back.
5. **Key derivation** — ``K = H(seed || P)`` (Eq. 4), client-side.
6. **Encryption** — deterministic symmetric encryption of each chunk.
7. **Write** — ciphertext chunks (keyed by *ciphertext* fingerprint) are
   uploaded in batches; the provider deduplicates.

The client also builds the file recipe (ciphertext fingerprints + sizes)
and the key recipe (per-chunk keys), seals both under its master key, and
uploads them (§2.2). Every step is attributed to a
:class:`~repro.utils.timer.StageTimer` using the paper's step names so
Experiments B.1/B.4 can report the same breakdown tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.crypto.cipher import SECURE, CipherProfile
from repro.obs import tracing
from repro.storage.dedup import FingerprintCache
from repro.storage.recipe import FileRecipe, KeyRecipe, seal, unseal
from repro.tedstore.messages import (
    GetChunks,
    GetRecipes,
    PutRecipes,
)
from repro.tedstore.pipeline import PipelinedUploader, batched
from repro.tedstore.restore_pipeline import PipelinedDownloader
from repro.tedstore.transports import KeyManagerTransport, ProviderTransport
from repro.utils.timer import StageTimer

DEFAULT_BATCH_SIZE = 48_000


@dataclass
class UploadResult:
    """Outcome of one file upload.

    ``duplicate_chunks`` counts every chunk that did not create new
    physical storage, whether the provider detected the duplicate or the
    client's fingerprint cache short-circuited the upload entirely;
    ``cache_hits`` is the subset resolved client-side, so
    ``stored_chunks + duplicate_chunks == chunk_count`` always holds.
    """

    file_name: str
    logical_bytes: int
    chunk_count: int
    stored_chunks: int
    duplicate_chunks: int
    cache_hits: int = 0


class TedStoreClient:
    """One TEDStore client (one user of the organization).

    Args:
        key_manager: transport to the key manager.
        provider: transport to the provider.
        master_key: per-client master key protecting recipes.
        profile: cipher/hash profile ("secure", "fast", or "shactr").
        sketch_rows / sketch_width: must match the key manager's sketch
            geometry — the client computes the short hashes (§3.3).
        batch_size: chunks per key-generation round trip (§3.5).
        chunker: content-defined chunker (paper defaults 4/8/16 KB).
        timer: optional stage timer; a fresh one is created if omitted.
        workers: encrypt/decrypt worker threads, the client's one
            concurrency setting. With ``workers == 1`` the caller's
            thread runs every stage itself and no thread is started;
            otherwise encryption and decryption run on a
            ``workers``-thread executor, and upload PUTs on one writer
            thread, with :data:`~repro.tedstore.pipeline.PIPELINE_DEPTH`
            as the backpressure (DESIGN.md §10). Stored state is
            byte-identical for every value.
        fingerprint_cache: optional client-side
            :class:`~repro.storage.dedup.FingerprintCache`; hits skip
            encryption and upload for chunks already at the provider.
    """

    def __init__(
        self,
        key_manager: KeyManagerTransport,
        provider: ProviderTransport,
        master_key: bytes = b"\x01" * 32,
        profile: CipherProfile = SECURE,
        sketch_rows: int = 4,
        sketch_width: int = 2**21,
        batch_size: int = DEFAULT_BATCH_SIZE,
        chunker: Optional[ContentDefinedChunker] = None,
        timer: Optional[StageTimer] = None,
        workers: int = 1,
        fingerprint_cache: Optional["FingerprintCache"] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.key_manager = key_manager
        self.provider = provider
        self.master_key = master_key
        self.profile = profile
        self.sketch_rows = sketch_rows
        self.sketch_width = sketch_width
        self.batch_size = batch_size
        self.chunker = chunker or ContentDefinedChunker(ChunkerParams())
        self.timer = timer or StageTimer()
        self.workers = workers
        self.fingerprint_cache = fingerprint_cache

    # -- upload ---------------------------------------------------------------

    def upload(self, file_name: str, data: bytes) -> UploadResult:
        """Chunk and upload a file's raw bytes.

        The chunker output streams into the upload stages, so with
        stage threads chunking overlaps encrypt and PUT, not keygen
        (both run in the caller's thread).
        """
        return self._upload_chunks(file_name, self._chunk_stream(data))

    def _chunk_stream(self, data: bytes) -> Iterable[bytes]:
        """Chunk lazily, attributing time to the chunking stage.

        Timed a slab of chunks at a time so the stage clock's own cost
        stays off the per-chunk path.
        """
        slabs = batched(self.chunker.chunk(data), 64)
        while True:
            with self.timer.stage("chunking"):
                slab = next(slabs, None)
            if slab is None:
                return
            yield from slab

    def upload_chunks(
        self, file_name: str, chunks: Sequence[bytes]
    ) -> UploadResult:
        """Upload pre-chunked data (the trace-replay path, §5.3.2)."""
        return self._upload_chunks(file_name, chunks)

    def _upload_chunks(
        self, file_name: str, chunks: Iterable[bytes]
    ) -> UploadResult:
        try:
            count = len(chunks)  # type: ignore[arg-type]
        except TypeError:
            count = -1  # streaming feed: total unknown until chunked
        uploader = PipelinedUploader(self)
        with tracing.get_tracer().span(
            "client.upload",
            attributes={"file": file_name, "chunks": count},
        ):
            if self.fingerprint_cache is not None:
                # A reshard moves fingerprint ownership between provider
                # shards; cached "duplicate" verdicts from the old
                # placement must not suppress uploads under the new one.
                # The provider advertises its ring epoch; any advance
                # drops the cache.
                ring_epoch = getattr(self.provider, "ring_epoch", None)
                if callable(ring_epoch):
                    self.fingerprint_cache.advance_epoch(ring_epoch())
            uploader.run(file_name, chunks)
            with self.timer.stage("write"):
                self._put_recipes(
                    file_name, uploader.file_recipe, uploader.key_recipe
                )
        return UploadResult(
            file_name=file_name,
            logical_bytes=uploader.logical_bytes,
            chunk_count=uploader.chunk_count,
            stored_chunks=uploader.stored,
            duplicate_chunks=uploader.duplicates,
            cache_hits=uploader.cache_hits,
        )

    def _put_recipes(
        self,
        file_name: str,
        file_recipe: FileRecipe,
        key_recipe: KeyRecipe,
    ) -> None:
        """Seal and upload recipes."""
        self.provider.put_recipes(
            PutRecipes(
                file_name=file_name,
                sealed_file_recipe=seal(
                    self.master_key, file_recipe.serialize()
                ),
                sealed_key_recipe=seal(
                    self.master_key, key_recipe.serialize()
                ),
            )
        )

    # -- observability ----------------------------------------------------------

    def transport_stats(self) -> dict:
        """Counters from both transports, keyed by entity.

        Over TCP this includes the wire-robustness counters — client-side
        ``client_retries`` / ``client_reconnects`` / ``client_timeouts``
        and the server-side ``server_*`` guards — so tests and operators
        can see recoveries that the request/response API papers over.
        """
        stats = {}
        for name, transport in (
            ("key_manager", self.key_manager),
            ("provider", self.provider),
        ):
            entry = dict(transport.stats())
            entry["transport"] = type(transport).__name__
            stats[name] = entry
        return stats

    # -- download ----------------------------------------------------------------

    def download(self, file_name: str) -> bytes:
        """Fetch, decrypt, and reassemble a file.

        Raises:
            FileNotFoundError: no such file in this tenant's namespace
                (typed ``MSG_NOT_FOUND`` reply over the wire; never
                retried).
            KeyError: a recipe names a chunk the provider does not hold.
            ValueError: recipe authentication failure (wrong master key or
                tampering), a recipe in the retired metadata-dedup layout,
                a chunk whose ciphertext does not match its fingerprint,
                or a chunk that decrypts to the wrong size.
        """
        with tracing.get_tracer().span(
            "client.download", attributes={"file": file_name}
        ):
            with self.timer.stage("recipe fetch"):
                file_recipe, key_recipe = self._fetch_recipes(file_name)
            data = PipelinedDownloader(self).run(
                file_name, file_recipe.entries, key_recipe.keys
            )
        return data

    def _get_chunks_checked(
        self, fingerprints: Sequence[bytes]
    ) -> List[bytes]:
        """One ``GetChunks`` round trip, reply length verified.

        A short reply would otherwise be silently swallowed by ``zip``
        downstream, truncating the restored file with no error.
        """
        chunks = self.provider.get_chunks(
            GetChunks(fingerprints=list(fingerprints))
        ).chunks
        if len(chunks) != len(fingerprints):
            raise ValueError(
                f"provider returned {len(chunks)} chunks for a request "
                f"of {len(fingerprints)}"
            )
        return chunks

    def _fetch_recipes(
        self, file_name: str
    ) -> Tuple[FileRecipe, KeyRecipe]:
        """Fetch and unseal a file's recipes.

        Raises:
            ValueError: the recipe is in the retired metadata-dedup
                layout (an empty sealed key recipe), refused before any
                chunk is fetched; or the checks below fail.
        """
        recipes = self.provider.get_recipes(
            GetRecipes(file_name=file_name)
        )
        if not recipes.sealed_key_recipe:
            raise ValueError(
                f"{file_name!r} is stored in the retired metadata-dedup "
                f"recipe layout: restore it with an older build"
            )
        file_recipe = FileRecipe.deserialize(
            unseal(self.master_key, recipes.sealed_file_recipe)
        )
        key_recipe = KeyRecipe.deserialize(
            unseal(self.master_key, recipes.sealed_key_recipe)
        )
        if file_recipe.file_name != file_name:
            # A provider serving another file's recipes must not get
            # that file restored under this name.
            raise ValueError(
                f"recipe for {file_recipe.file_name!r} served for "
                f"{file_name!r}"
            )
        if len(file_recipe.entries) != len(key_recipe.keys):
            raise ValueError(
                "file and key recipes disagree on chunk count"
            )
        return file_recipe, key_recipe

    # -- key generation only (Experiment B.2) -------------------------------------

    def generate_keys_only(
        self, chunks: Iterable[bytes]
    ) -> List[Tuple[bytes, bytes]]:
        """Run only the key-generation pipeline: hash → seed → derive.

        Returns per-chunk ``(fingerprint, key)`` pairs. This isolates the
        steps Experiment B.2 measures (hashing + key seeding + key
        derivation) from chunk encryption and upload.
        """
        uploader = PipelinedUploader(self)
        output: List[Tuple[bytes, bytes]] = []
        for batch in batched(chunks, self.batch_size):
            fingerprints, _seeds, keys = uploader.derive_keys(batch)
            output.extend(zip(fingerprints, keys))
        return output
