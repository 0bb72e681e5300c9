"""Chunking substrate: Rabin fingerprinting and content-defined chunking."""

from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.chunking.rabin import RabinFingerprint, find_irreducible, is_irreducible

__all__ = [
    "ChunkerParams",
    "ContentDefinedChunker",
    "RabinFingerprint",
    "find_irreducible",
    "is_irreducible",
]
