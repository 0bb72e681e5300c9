"""Metadata deduplication via indirection (Metadedup, Li et al. MSST '19).

The TEDStore prototype "focuses on only the deduplication of data chunks,
but not metadata (e.g., file recipes)" (§4). For backup series this hurts:
every snapshot re-uploads a full file recipe + key recipe even though
consecutive snapshots share most of their chunk sequences. Metadedup — by
the same research group, cited as [43] — fixes this with indirection:

1. The (file recipe, key recipe) entry stream is split into fixed-arity
   **metadata chunks**.
2. Each metadata chunk is encrypted with a key derived from its own content
   (MLE on metadata), so identical recipe regions across snapshots encrypt
   identically and deduplicate like data chunks.
3. Per file, only a compact **meta recipe** — the metadata chunks'
   fingerprints and keys — is sealed under the client's master key.

Confidentiality note, as in Metadedup: the provider learns equality of
recipe *regions* (that is what enables the dedup); the content stays
encrypted, and the per-file meta recipe remains under the master key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.crypto import shactr
from repro.crypto.hashes import digest, hash_concat
from repro.storage.dedup import DedupEngine
from repro.storage.recipe import FileRecipe, KeyRecipe, seal, unseal
from repro.utils.varint import decode_uvarint, encode_uvarint

_META_MAGIC = b"MDR1"

#: One combined recipe entry: (ciphertext fingerprint, chunk size, key).
RecipeEntry = Tuple[bytes, int, bytes]


def _encode_entries(entries: List[RecipeEntry]) -> bytes:
    out = bytearray()
    out.extend(encode_uvarint(len(entries)))
    for fingerprint, size, key in entries:
        out.extend(encode_uvarint(len(fingerprint)))
        out.extend(fingerprint)
        out.extend(encode_uvarint(size))
        out.extend(encode_uvarint(len(key)))
        out.extend(key)
    return bytes(out)


def _decode_entries(data: bytes) -> List[RecipeEntry]:
    count, pos = decode_uvarint(data, 0)
    entries: List[RecipeEntry] = []
    for _ in range(count):
        fp_len, pos = decode_uvarint(data, pos)
        fingerprint = data[pos : pos + fp_len]
        pos += fp_len
        size, pos = decode_uvarint(data, pos)
        key_len, pos = decode_uvarint(data, pos)
        key = data[pos : pos + key_len]
        pos += key_len
        entries.append((fingerprint, size, key))
    return entries


def _segment_entries(
    entries: List[RecipeEntry], target_arity: int
) -> List[Tuple[int, int]]:
    """Content-defined segmentation of the recipe-entry stream.

    Fixed-arity splitting would misalign every metadata chunk after any
    insertion or deletion (the classic boundary-shift problem), destroying
    cross-snapshot metadata dedup. Instead, a metadata chunk ends at entries
    whose chunk fingerprint satisfies a divisor condition — so boundaries
    stick to content and unchanged recipe regions yield byte-identical
    metadata chunks in every snapshot (Metadedup's segment alignment).

    Returns ``(start, end)`` index pairs; average segment length is
    ``target_arity`` entries, with a minimum of 1 and a maximum of
    ``4 * target_arity``.
    """
    boundaries: List[Tuple[int, int]] = []
    start = 0
    for i, (fingerprint, _, _) in enumerate(entries):
        length = i + 1 - start
        value = int.from_bytes(fingerprint[-8:], "big")
        if (
            value % target_arity == target_arity - 1
            or length >= 4 * target_arity
        ):
            boundaries.append((start, i + 1))
            start = i + 1
    if start < len(entries):
        boundaries.append((start, len(entries)))
    return boundaries


def pack_metadata_chunks(
    file_recipe: FileRecipe,
    key_recipe: KeyRecipe,
    entries_per_chunk: int = 128,
) -> Tuple[List[Tuple[bytes, bytes]], bytes]:
    """Split recipes into encrypted, dedupable metadata chunks.

    Returns:
        ``(chunks, meta_plain)`` where ``chunks`` is a list of
        (fingerprint, ciphertext) pairs ready for the provider's normal
        chunk path, and ``meta_plain`` is the compact meta recipe (seal it
        under the master key before upload).

    Raises:
        ValueError: mismatched recipes or non-positive arity.
    """
    if entries_per_chunk <= 0:
        raise ValueError("entries_per_chunk must be positive")
    if len(file_recipe.entries) != len(key_recipe.keys):
        raise ValueError("file and key recipes disagree on chunk count")
    entries: List[RecipeEntry] = [
        (fingerprint, size, key)
        for (fingerprint, size), key in zip(
            file_recipe.entries, key_recipe.keys
        )
    ]
    chunks: List[Tuple[bytes, bytes]] = []
    pointers: List[Tuple[bytes, bytes]] = []
    for start, end in _segment_entries(entries, entries_per_chunk):
        plaintext = _encode_entries(entries[start:end])
        key = MetaDedupStore._metadata_key(plaintext)
        nonce = digest(b"metadedup-nonce" + key)[:16]
        ciphertext = shactr.encrypt(key, nonce, plaintext)
        fingerprint = digest(ciphertext)
        chunks.append((fingerprint, ciphertext))
        pointers.append((fingerprint, key))

    meta = bytearray(_META_MAGIC)
    meta.extend(encode_uvarint(len(pointers)))
    name = file_recipe.file_name.encode("utf-8")
    meta.extend(encode_uvarint(len(name)))
    meta.extend(name)
    for fingerprint, key in pointers:
        meta.extend(encode_uvarint(len(fingerprint)))
        meta.extend(fingerprint)
        meta.extend(encode_uvarint(len(key)))
        meta.extend(key)
    return chunks, bytes(meta)


def unpack_metadata_chunks(
    meta_plain: bytes, fetch
) -> Tuple[FileRecipe, KeyRecipe]:
    """Reassemble recipes from a meta recipe and a chunk-fetch callable.

    Args:
        meta_plain: the unsealed meta recipe from :func:`pack_metadata_chunks`.
        fetch: ``fetch(fingerprints) -> list[bytes]`` returning the
            metadata-chunk ciphertexts in order (the provider's normal
            chunk-download path).

    Raises:
        ValueError: corrupt meta recipe, or a metadata chunk whose
            ciphertext does not match its fingerprint.
    """
    if meta_plain[:4] != _META_MAGIC:
        raise ValueError("not a meta recipe")
    count, pos = decode_uvarint(meta_plain, 4)
    name_len, pos = decode_uvarint(meta_plain, pos)
    original_name = meta_plain[pos : pos + name_len].decode("utf-8")
    pos += name_len
    pointers: List[Tuple[bytes, bytes]] = []
    for _ in range(count):
        fp_len, pos = decode_uvarint(meta_plain, pos)
        fingerprint = meta_plain[pos : pos + fp_len]
        pos += fp_len
        key_len, pos = decode_uvarint(meta_plain, pos)
        key = meta_plain[pos : pos + key_len]
        pos += key_len
        pointers.append((fingerprint, key))

    file_recipe = FileRecipe(file_name=original_name)
    key_recipe = KeyRecipe()
    ciphertexts = fetch([fp for fp, _ in pointers])
    for (fingerprint, key), ciphertext in zip(pointers, ciphertexts):
        if digest(ciphertext) != fingerprint:
            raise ValueError(
                f"metadata chunk {fingerprint.hex()} does not match its "
                f"fingerprint"
            )
        nonce = digest(b"metadedup-nonce" + key)[:16]
        plaintext = shactr.decrypt(key, nonce, ciphertext)
        for chunk_fp, size, chunk_key in _decode_entries(plaintext):
            file_recipe.add(chunk_fp, size)
            key_recipe.add(chunk_key)
    return file_recipe, key_recipe


@dataclass
class MetadataStats:
    """Metadata-path accounting (the Metadedup evaluation's headline)."""

    logical_bytes: int = 0
    files: int = 0

    def saving(self, physical_bytes: int) -> float:
        """Fraction of metadata bytes removed by deduplication."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - physical_bytes / self.logical_bytes


class MetaDedupStore:
    """Deduplicated recipe storage on top of a dedup engine.

    Args:
        engine: the dedup engine metadata chunks are stored through. Use a
            dedicated engine (separate from data chunks) to keep the
            metadata saving measurable, or share the data engine — both
            are valid Metadedup deployments.
        entries_per_chunk: recipe entries per metadata chunk. Smaller
            chunks dedup better across partially-changed recipes; larger
            chunks reduce per-chunk overhead (Metadedup's segment-size
            knob).
    """

    def __init__(
        self, engine: DedupEngine, entries_per_chunk: int = 128
    ) -> None:
        if entries_per_chunk <= 0:
            raise ValueError("entries_per_chunk must be positive")
        self.engine = engine
        self.entries_per_chunk = entries_per_chunk
        self._meta_recipes = {}
        self.stats = MetadataStats()

    @staticmethod
    def _metadata_key(plaintext: bytes) -> bytes:
        """MLE on metadata chunks: the key is derived from the content."""
        return hash_concat([b"metadedup-key", plaintext])

    def store_recipes(
        self,
        file_name: str,
        file_recipe: FileRecipe,
        key_recipe: KeyRecipe,
        master_key: bytes,
    ) -> int:
        """Store a file's recipes with metadata deduplication.

        Returns:
            The number of metadata chunks the recipes were split into.

        Raises:
            ValueError: if the recipes disagree on the chunk count.
        """
        chunks, meta_plain = pack_metadata_chunks(
            file_recipe, key_recipe, self.entries_per_chunk
        )
        for fingerprint, ciphertext in chunks:
            self.engine.store(fingerprint, ciphertext)
            self.stats.logical_bytes += len(ciphertext)
        self._meta_recipes[file_name] = seal(master_key, meta_plain)
        self.stats.files += 1
        return len(chunks)

    def load_recipes(
        self, file_name: str, master_key: bytes
    ) -> Tuple[FileRecipe, KeyRecipe]:
        """Reassemble a file's recipes.

        Raises:
            KeyError: unknown file.
            ValueError: authentication failure or corrupt metadata.
        """
        sealed = self._meta_recipes[file_name]
        meta_plain = unseal(master_key, sealed)
        return unpack_metadata_chunks(
            meta_plain, fetch=lambda fps: [self.engine.load(fp) for fp in fps]
        )

    def metadata_saving(self) -> float:
        """Measured metadata storage saving from deduplication."""
        return self.stats.saving(self.engine.stats.unique_bytes)
