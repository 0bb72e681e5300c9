"""Deduplicated-storage substrate: LSM index, containers, recipes, dedup."""

from repro.storage.restore import FragmentationAnalyzer, FragmentationReport
from repro.storage.container import ChunkLocation, ContainerStore
from repro.storage.dedup import DedupEngine, DedupStats
from repro.storage.kvstore import KVStore
from repro.storage.memtable import MemTable
from repro.storage.recipe import FileRecipe, KeyRecipe, seal, unseal
from repro.storage.sstable import SSTable, write_sstable
from repro.storage.wal import WriteAheadLog

__all__ = [
    "FragmentationAnalyzer",
    "FragmentationReport",
    "ChunkLocation",
    "ContainerStore",
    "DedupEngine",
    "DedupStats",
    "KVStore",
    "MemTable",
    "FileRecipe",
    "KeyRecipe",
    "seal",
    "unseal",
    "SSTable",
    "write_sstable",
    "WriteAheadLog",
]
