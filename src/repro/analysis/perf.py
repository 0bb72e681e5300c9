"""Performance experiment drivers — Experiments B.1 to B.5 (paper §5.3).

All data volumes are scaled from the paper's GB-sized workloads to sizes a
pure-Python implementation can push in bench time; absolute numbers are
expected to be ~10^3x below the C++/10GbE prototype, but the *shapes* the
paper reports are preserved (see DESIGN.md §3-4): keygen is a tiny share of
upload time, TED keygen beats blind RSA beats blind BLS, aggregate upload
scales with clients, trace-replay uploads slow down with index growth, and
restores slow down with fragmentation.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chunking.cdc import ChunkerParams, ContentDefinedChunker
from repro.core.ted import TedKeyManager
from repro.crypto import blindsig, rsa
from repro.crypto.cipher import get_profile
from repro.tedstore.client import TedStoreClient
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    serve_key_manager,
    serve_provider,
)
from repro.tedstore.provider import ProviderService
from repro.traces.model import Snapshot
from repro.traces.workload import snapshot_to_chunks, unique_file

#: Upload pipeline steps in paper order (Tables 1 and 2).
UPLOAD_STEPS = (
    "chunking",
    "fingerprinting",
    "hashing",
    "key seeding",
    "key derivation",
    "encryption",
    "write",
)


def _make_inprocess_client(
    profile_name: str,
    batch_size: int,
    sketch_width: int = 2**16,
    provider: Optional[ProviderService] = None,
    blowup_factor: float = 1.05,
) -> TedStoreClient:
    key_manager = KeyManagerService(
        TedKeyManager(
            secret=b"perf-secret",
            blowup_factor=blowup_factor,
            batch_size=batch_size,
            sketch_width=sketch_width,
            rng=random.Random(7),
        )
    )
    provider = provider or ProviderService(in_memory=True)
    return TedStoreClient(
        LocalKeyManager(key_manager),
        LocalProvider(provider),
        profile=get_profile(profile_name),
        sketch_width=sketch_width,
        batch_size=batch_size,
    )


@dataclass
class Breakdown:
    """Per-step time breakdown normalized to milliseconds per MB."""

    label: str
    data_bytes: int
    step_seconds: Dict[str, float] = field(default_factory=dict)

    def ms_per_mb(self) -> Dict[str, float]:
        """The paper's Tables 1/2 unit: ms of compute per MB uploaded."""
        megabytes = self.data_bytes / (1 << 20)
        return {
            step: round(self.step_seconds.get(step, 0.0) * 1000.0 / megabytes, 4)
            for step in UPLOAD_STEPS
            if step in self.step_seconds
        }

    @property
    def keygen_share(self) -> float:
        """Fraction of total time spent in TED key generation
        (hashing + key seeding + key derivation) — the §5.3 headline."""
        total = sum(self.step_seconds.values())
        keygen = sum(
            self.step_seconds.get(s, 0.0)
            for s in ("hashing", "key seeding", "key derivation")
        )
        return keygen / total if total else 0.0


def experiment_b1(
    file_bytes: int = 1 << 20,
    profile_name: str = "secure",
    batch_size: int = 2000,
) -> Breakdown:
    """Table 1: single-machine microbenchmark on unique data, no disk I/O."""
    client = _make_inprocess_client(profile_name, batch_size)
    data = unique_file(file_bytes, client_id=0)
    client.upload("b1-file", data)
    return Breakdown(
        label=f"B.1/{profile_name}",
        data_bytes=file_bytes,
        step_seconds=client.timer.totals(),
    )


# -- Experiment B.2: key-generation speed ------------------------------------


def keygen_speed_ted(
    num_chunks: int,
    batch_size: int,
    chunk_bytes: int = 8192,
    use_tcp: bool = False,
    sketch_width: int = 2**16,
) -> float:
    """TED key-generation speed in MB/s of covered file data.

    Measures hashing + key seeding + key derivation for ``num_chunks``
    unique fingerprints, exactly the span Experiment B.2 times.
    """
    chunks = [
        (b"b2-chunk-%d" % i) * 8 for i in range(num_chunks)
    ]  # small stand-ins; key-gen cost is per chunk, not per byte
    key_manager = KeyManagerService(
        TedKeyManager(
            secret=b"perf-secret",
            blowup_factor=1.05,
            batch_size=batch_size,
            sketch_width=sketch_width,
        )
    )
    if use_tcp:
        handle = serve_key_manager(key_manager)
        transport = RemoteKeyManager(handle.address)
    else:
        handle = None
        transport = LocalKeyManager(key_manager)
    client = TedStoreClient(
        transport,
        LocalProvider(ProviderService(in_memory=True)),
        sketch_width=sketch_width,
        batch_size=batch_size,
    )
    try:
        start = time.perf_counter()
        client.generate_keys_only(chunks)
        elapsed = time.perf_counter() - start
    finally:
        if handle is not None:
            transport.close()
            handle.stop()
    return num_chunks * chunk_bytes / elapsed / (1 << 20)


def keygen_speed_blind_rsa(
    num_chunks: int,
    chunk_bytes: int = 8192,
    key: Optional[rsa.RSAPrivateKey] = None,
    bits: int = 2048,
) -> float:
    """Blind-RSA (DupLESS) key-generation speed in MB/s."""
    server = blindsig.BlindRSAKeyServer(
        key=key, bits=bits, rng=random.Random(3)
    )
    client = blindsig.BlindRSAClient(server.public_key, rng=random.Random(4))
    fingerprints = [b"b2-fp-%d" % i for i in range(num_chunks)]
    start = time.perf_counter()
    client.generate_keys(fingerprints, server)
    elapsed = time.perf_counter() - start
    return num_chunks * chunk_bytes / elapsed / (1 << 20)


def keygen_speed_blind_bls(
    num_chunks: int, chunk_bytes: int = 8192
) -> float:
    """Blind-BLS-style key-generation speed in MB/s."""
    server = blindsig.BlindBLSKeyServer(rng=random.Random(5))
    client = blindsig.BlindBLSClient(rng=random.Random(6))
    fingerprints = [b"b2-fp-%d" % i for i in range(num_chunks)]
    start = time.perf_counter()
    client.generate_keys(fingerprints, server)
    elapsed = time.perf_counter() - start
    return num_chunks * chunk_bytes / elapsed / (1 << 20)


# -- Experiment B.3: multi-client throughput -------------------------------------


@dataclass
class MultiClientResult:
    """Aggregate speeds for one client count."""

    clients: int
    upload_mb_s: float
    download_mb_s: float


def experiment_b3(
    num_clients: int,
    file_bytes: int = 1 << 20,
    batch_size: int = 1000,
    profile_name: str = "shactr",
) -> MultiClientResult:
    """Figure 8: concurrent clients uploading then downloading over TCP."""
    key_manager = KeyManagerService(
        TedKeyManager(
            secret=b"perf-secret",
            blowup_factor=1.05,
            batch_size=batch_size * 8,
            sketch_width=2**18,
        )
    )
    provider = ProviderService(in_memory=True)
    km_handle = serve_key_manager(key_manager)
    prov_handle = serve_provider(provider)
    clients: List[TedStoreClient] = []
    try:
        for client_id in range(num_clients):
            clients.append(
                TedStoreClient(
                    RemoteKeyManager(km_handle.address),
                    RemoteProvider(prov_handle.address),
                    master_key=bytes([client_id + 1]) * 32,
                    profile=get_profile(profile_name),
                    sketch_width=2**18,
                    batch_size=batch_size,
                )
            )
        datasets = [
            unique_file(file_bytes, client_id=i) for i in range(num_clients)
        ]

        def run_phase(action) -> float:
            barrier = threading.Barrier(num_clients + 1)
            errors: List[BaseException] = []

            def worker(index: int) -> None:
                try:
                    barrier.wait()
                    action(index)
                except BaseException as exc:  # propagate to the caller
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(num_clients)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            start = time.perf_counter()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            if errors:
                raise errors[0]
            return elapsed

        upload_elapsed = run_phase(
            lambda i: clients[i].upload(f"client{i}", datasets[i])
        )
        download_elapsed = run_phase(
            lambda i: clients[i].download(f"client{i}")
        )
    finally:
        for client in clients:
            client.key_manager.close()
            client.provider.close()
        km_handle.stop()
        prov_handle.stop()
    total_mb = num_clients * file_bytes / (1 << 20)
    return MultiClientResult(
        clients=num_clients,
        upload_mb_s=total_mb / upload_elapsed,
        download_mb_s=total_mb / download_elapsed,
    )


# -- Experiments B.4/B.5: real-world (trace-replay) workloads --------------------


def experiment_b4(
    snapshot: Snapshot,
    directory: Optional[str] = None,
    profile_name: str = "shactr",
    batch_size: int = 2000,
    container_bytes: int = 1 << 20,
) -> Breakdown:
    """Table 2: per-step upload breakdown for one trace snapshot.

    Replays the snapshot (content materialized from fingerprints, §5.3.2)
    into an on-disk provider, so deduplication and disk I/O are in effect.
    Chunking is omitted, and the write step includes provider dedup + disk,
    exactly as in the paper's Table 2.
    """
    directory = directory or tempfile.mkdtemp(prefix="repro-b4-")
    provider = ProviderService(
        directory=directory, container_bytes=container_bytes
    )
    client = _make_inprocess_client(
        profile_name, batch_size, provider=provider
    )
    chunks = [content for _, content in snapshot_to_chunks(snapshot)]
    client.upload_chunks(snapshot.snapshot_id, chunks)
    provider.flush()
    return Breakdown(
        label=f"B.4/{snapshot.snapshot_id}",
        data_bytes=snapshot.total_bytes,
        step_seconds=client.timer.totals(),
    )


@dataclass
class SeriesPoint:
    """Per-snapshot speeds in the B.5 upload/download series."""

    snapshot_id: str
    upload_mb_s: float
    download_mb_s: float


def experiment_b5(
    snapshots: Sequence[Snapshot],
    directory: Optional[str] = None,
    profile_name: str = "shactr",
    batch_size: int = 2000,
    container_bytes: int = 1 << 20,
    kvstore_options: Optional[Dict] = None,
) -> List[SeriesPoint]:
    """Figure 9: upload all snapshots in order, then download them.

    One shared provider across the series, so cross-snapshot dedup,
    fingerprint-index growth, and chunk fragmentation all take effect —
    the mechanisms behind the paper's declining download curve.
    """
    directory = directory or tempfile.mkdtemp(prefix="repro-b5-")
    from repro.storage.dedup import DedupEngine

    engine = DedupEngine(
        directory,
        container_bytes=container_bytes,
        kvstore_options=kvstore_options,
    )
    provider = ProviderService(engine=engine)

    key_manager = KeyManagerService(
        TedKeyManager(
            secret=b"perf-secret",
            blowup_factor=1.05,
            batch_size=batch_size * 8,
            sketch_width=2**18,
        )
    )
    client = TedStoreClient(
        LocalKeyManager(key_manager),
        LocalProvider(provider),
        profile=get_profile(profile_name),
        sketch_width=2**18,
        batch_size=batch_size,
    )

    upload_times: List[Tuple[str, float, int]] = []
    for snapshot in snapshots:
        chunks = [content for _, content in snapshot_to_chunks(snapshot)]
        start = time.perf_counter()
        client.upload_chunks(snapshot.snapshot_id, chunks)
        provider.flush()
        elapsed = time.perf_counter() - start
        upload_times.append(
            (snapshot.snapshot_id, elapsed, snapshot.total_bytes)
        )

    points: List[SeriesPoint] = []
    for snapshot_id, upload_elapsed, total_bytes in upload_times:
        start = time.perf_counter()
        data = client.download(snapshot_id)
        download_elapsed = time.perf_counter() - start
        if len(data) != total_bytes:
            raise RuntimeError(
                f"restore of {snapshot_id} returned {len(data)} bytes, "
                f"expected {total_bytes}"
            )
        megabytes = total_bytes / (1 << 20)
        points.append(
            SeriesPoint(
                snapshot_id=snapshot_id,
                upload_mb_s=megabytes / upload_elapsed,
                download_mb_s=megabytes / download_elapsed,
            )
        )
    return points
