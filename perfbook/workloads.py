"""The three workloads: what they upload and restore, and on which shape.

A workload is a fixed, seed-determined list of operations. One *round*
builds a fresh deployment, generates the payload set from the seed, runs
the list and tears the deployment down, so the work done -- and every
count taken from it -- repeats exactly from round to round. ``run.py``
repeats rounds until the requested measuring time is used up.

``--seed`` changes every byte a workload uploads. On the two workloads
with duplicates it does not change *which* chunks are duplicates of which:
that shape is drawn once, from :data:`SHAPE_SEED`, and the seed salts the
content. Runs at different seeds are then measurements of one workload,
and a bound tighter than the shape-to-shape variation means something.

Sizes below are for ``--scale 1``; README.md explains each choice.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.loadgen.runner import PayloadForge
from repro.loadgen.workload import FileShape
from repro.storage.dedup import FingerprintCache
from repro.storage.recipe import FileRecipe, unseal
from repro.tedstore.messages import GetRecipes
from repro.traces.model import Snapshot
from repro.traces.synthetic import SyntheticTraceGenerator, TraceConfig
from repro.traces.workload import snapshot_to_chunks, unique_bytes

import deploy

UPLOAD, RESTORE = "upload", "restore"
SHAPE_SEED = 2013


@dataclass
class Op:
    """One client operation on one file."""

    kind: str
    name: str
    size: int
    digest: bytes  # SHA-256 of the file: what restores must give back
    payload: Optional[bytes] = None  # upload: the file's bytes ...
    chunks: Optional[List[bytes]] = None  # ... or its chunks (trace replay)
    plain_ids: Optional[List[bytes]] = None  # trace replay: chunk identities


@dataclass
class Sample:
    """What one executed operation measured."""

    op: Op
    seconds: float
    error: str = ""
    restored: Optional[bytes] = None  # held until the phase is verified

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Phase:
    """One timed stretch of a round."""

    name: str
    start_ns: int = 0
    end_ns: int = 0
    samples: List[Sample] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _upload_op(name: str, payload: bytes) -> Op:
    return Op(
        UPLOAD, name, len(payload), hashlib.sha256(payload).digest(), payload
    )


def _restore_of(op: Op) -> Op:
    return Op(RESTORE, op.name, op.size, op.digest)


class Harness:
    """Runs operations for a round and keeps what they measured.

    ``corrupt_restore`` is the self-test hook: the index of a restore
    whose bytes get one bit flipped before they are compared, so the
    test can see that a wrong restore is counted as failed.
    """

    def __init__(
        self,
        deployment: deploy.Deployment,
        corrupt_restore: Optional[int] = None,
    ) -> None:
        self.deployment = deployment
        self.recorder = deployment.recorder
        self.corrupt_restore = corrupt_restore
        self.setup_samples: List[Sample] = []
        self.phases: List[Phase] = []
        # Identity of every uploaded chunk occurrence, before and after
        # encryption, filled by read_back() once the timed phases are over.
        self.plain_ids: List[bytes] = []
        self.cipher_ids: List[bytes] = []
        self.read_back_errors: List[str] = []
        #: called once, when set-up is over and the first timed phase starts
        self.on_first_phase: Callable[[], None] = lambda: None
        self._op_ids = iter(range(1, 1 << 62))
        self._restores_checked = 0

    def execute(self, client, op: Op, sole: bool = True) -> Sample:
        """Run one operation; an exception becomes a failed sample."""
        op_id = next(self._op_ids)
        restored = None
        error = ""
        start = time.perf_counter()
        try:
            if self.recorder is not None:
                with self.recorder.operation(op_id, f"op.{op.kind}", sole):
                    restored = _call(client, op)
            else:
                restored = _call(client, op)
        except Exception as exc:  # the failure is the measurement
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return Sample(op, seconds, error, restored)

    def run_setup(self, client, ops: Sequence[Op]) -> None:
        """Untimed operations that load state the timed phases build on."""
        self.setup_samples += [self.execute(client, op) for op in ops]

    def run_phase(
        self,
        name: str,
        work: Sequence[Tuple[object, Sequence[Op]]],
        finish: Optional[Callable[[], None]] = None,
    ) -> Phase:
        """Time one phase: each ``(client, ops)`` pair is a closed loop.

        One pair runs on the calling thread; several run on a thread
        each. ``finish`` (a durability barrier) is inside the timed wall.
        Restored bytes are compared after the clock stops.
        """
        phase = Phase(name)
        results: List[List[Sample]] = [[] for _ in work]
        sole = len(work) == 1

        def loop(index: int) -> None:
            client, ops = work[index]
            results[index] = [self.execute(client, op, sole) for op in ops]

        threads = [
            threading.Thread(target=loop, args=(index,))
            for index in range(1, len(work))
        ]
        if not self.phases:
            self.on_first_phase()
        phase.start_ns = time.monotonic_ns()
        for thread in threads:
            thread.start()
        loop(0)
        for thread in threads:
            thread.join()
        if finish is not None:
            finish()
        phase.end_ns = time.monotonic_ns()
        phase.samples = [sample for samples in results for sample in samples]
        for sample in phase.samples:
            self._verify(sample)
        self.phases.append(phase)
        return phase

    def _verify(self, sample: Sample) -> None:
        if sample.op.kind != RESTORE or sample.error:
            return
        data = sample.restored
        sample.restored = None
        if self._restores_checked == self.corrupt_restore:
            data = bytes([data[0] ^ 1]) + data[1:]
        self._restores_checked += 1
        if hashlib.sha256(data).digest() != sample.op.digest:
            sample.error = "restored bytes differ from what was uploaded"

    def read_back(self, client, uploads: Sequence[Op]) -> None:
        """Unseal each upload's file recipe with the client's master key.

        The recipe lists the ciphertext fingerprint and size of every
        chunk occurrence; the sizes also cut the payload back into its
        plaintext chunks, whose hashes are the plaintext identities.
        """
        for op in uploads:
            try:
                sealed = client.provider.get_recipes(
                    GetRecipes(file_name=op.name)
                )
                recipe = FileRecipe.deserialize(
                    unseal(client.master_key, sealed.sealed_file_recipe)
                )
            except Exception as exc:  # an upload that left no readable recipe
                self.read_back_errors.append(
                    f"recipe of {op.name}: {type(exc).__name__}: {exc}"
                )
                continue
            self.cipher_ids += [fp for fp, _ in recipe.entries]
            if op.plain_ids is not None:
                self.plain_ids += op.plain_ids
                continue
            offset = 0
            for _, size in recipe.entries:
                piece = op.payload[offset : offset + size]
                self.plain_ids.append(hashlib.sha256(piece).digest())
                offset += size

    def all_samples(self) -> List[Sample]:
        return self.setup_samples + [
            sample for phase in self.phases for sample in phase.samples
        ]


def _call(client, op: Op) -> Optional[bytes]:
    if op.kind == RESTORE:
        return client.download(op.name)
    if op.chunks is not None:
        client.upload_chunks(op.name, op.chunks)
    else:
        client.upload(op.name, op.payload)
    return None


# -- the workloads ----------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    #: one client thread: counts repeat exactly from round to round
    single_threaded = True

    def deployment(
        self, root: Path, seed: int, trace: bool
    ) -> deploy.Deployment:
        raise NotImplementedError

    def run(self, harness: Harness, seed: int, scale: float) -> Dict:
        """Generate the payload set, then set up and run the timed phases.

        Returns workload-specific facts (``recovery_s``, cache counters).
        """
        raise NotImplementedError

    def unmet_claims(self, per_layer: Dict, facts: Dict) -> List[str]:
        """What a full-size round failed to exercise of what ``why`` claims."""
        return []


class FreshInproc(Workload):
    name = "fresh_inproc"
    why = (
        "first full backup of unique data, in process: chunking, hashing, "
        "cipher and container writes do the work; no wire, no dedup hits"
    )
    FILES = 60
    FILE_BYTES = 1 << 20

    def deployment(self, root, seed, trace):
        return deploy.InProcess(root, seed, trace)

    def run(self, harness, seed, scale):
        count = max(2, round(self.FILES * scale))
        uploads = [
            _upload_op(
                f"fresh/{index:04d}",
                unique_bytes(self.FILE_BYTES, seed=seed * 100_003 + index),
            )
            for index in range(count)
        ]
        deployment = harness.deployment
        client = deployment.client(batch_size=4096)
        harness.run_phase(
            "upload", [(client, uploads)], finish=deployment.flush
        )
        harness.run_phase(
            "restore", [(client, [_restore_of(op) for op in uploads])]
        )
        harness.read_back(client, uploads)
        return {}


class IncrementalTcp(Workload):
    name = "incremental_tcp"
    why = (
        "incremental snapshots (>=85% duplicate 4 KiB records) over TCP, then "
        "provider SIGKILL and a cold, fragmented restore: cache, index, wire"
    )
    FILES_PER_SNAPSHOT = 147  # about 6,400 records of 4 KiB per snapshot
    TIMED_SNAPSHOTS = 2
    RECORDS_PER_OP = 64
    # Provider geometry scaled to the snapshot size (README, "Configuration"):
    # the index outgrows the memtable and the containers outnumber the cache.
    CONTAINER_BYTES = 1 << 20
    MEMTABLE_BYTES = 48 << 10

    def deployment(self, root, seed, trace):
        return deploy.SingleTcp(
            root,
            seed,
            trace,
            container_bytes=self.CONTAINER_BYTES,
            memtable_bytes=self.MEMTABLE_BYTES,
        )

    def unmet_claims(self, per_layer, facts):
        floors = {
            "storage.index_flushes": 4,
            "storage.index_compactions": 1,
            "km.retunes": 2,
        }
        unmet = [
            f"{name} = {per_layer[name]}, expected >= {floor}"
            for name, floor in floors.items()
            if per_layer[name] < floor
        ]
        if per_layer["client.fpcache_hit_ratio"] <= 0:
            unmet.append("the fingerprint cache never hit")
        if facts["duplicate_share"] < 0.85:
            unmet.append(
                f"only {facts['duplicate_share']:.1%} duplicate chunks offered"
            )
        return unmet

    def snapshots(self, seed: int, scale: float) -> List[List[Op]]:
        """An FSL-like series as upload ops, one list per snapshot."""
        config = TraceConfig(
            name="fsl",
            fingerprint_bits=48,
            min_chunk=4096,
            max_chunk=4096,
            files_per_snapshot=max(2, round(self.FILES_PER_SNAPSHOT * scale)),
            mean_file_chunks=48,
            file_copy_prob=0.38,
            popular_pool_size=4000,
            popular_prob=0.30,
            zipf_s=1.85,
        )
        generator = SyntheticTraceGenerator(config, "user000", SHAPE_SEED)
        salt = seed.to_bytes(8, "big")
        series = []
        for step in range(1 + self.TIMED_SNAPSHOTS):
            shape = generator.snapshot(f"snap{step}")
            salted = Snapshot(
                shape.snapshot_id,
                [
                    (hashlib.sha256(salt + fingerprint).digest()[:6], size)
                    for fingerprint, size in shape.records
                ],
            )
            records = list(snapshot_to_chunks(salted))
            ops = []
            for start in range(0, len(records), self.RECORDS_PER_OP):
                part = records[start : start + self.RECORDS_PER_OP]
                chunks = [content for _, content in part]
                data = b"".join(chunks)
                ops.append(
                    Op(
                        UPLOAD,
                        f"snap{step}/{start:06d}",
                        len(data),
                        hashlib.sha256(data).digest(),
                        chunks=chunks,
                        plain_ids=[fingerprint for fingerprint, _ in part],
                    )
                )
            series.append(ops)
        return series

    def run(self, harness, seed, scale):
        series = self.snapshots(seed, scale)
        deployment = harness.deployment
        cache = FingerprintCache()
        client = deployment.client(
            workers=2, fingerprint_cache=cache, batch_size=512
        )
        harness.run_setup(client, series[0])
        harness.run_phase(
            "upload",
            [(client, [op for ops in series[1:] for op in ops])],
            finish=deployment.flush,
        )
        recovery_s = deployment.crash_provider()
        # A new client: the restore starts cold on both sides of the wire.
        client = deployment.client(workers=2, batch_size=512)
        harness.run_phase(
            "restore", [(client, [_restore_of(op) for op in series[-1]])]
        )
        harness.read_back(client, [op for ops in series for op in ops])
        seen = {fp for op in series[0] for fp in op.plain_ids}
        timed = [fp for ops in series[1:] for op in ops for fp in op.plain_ids]
        duplicates = 0
        for fingerprint in timed:
            duplicates += fingerprint in seen
            seen.add(fingerprint)
        return {
            "recovery_s": recovery_s,
            "fpcache": cache.stats(),
            "duplicate_share": duplicates / len(timed),
        }


class SmallfilesFleet(Workload):
    name = "smallfiles_fleet"
    why = (
        "two tenants mixing 70% uploads / 30% restores of 4-32 KiB files on "
        "the 3-shard fleet: per-op round trips, fsyncs and routing dominate"
    )
    single_threaded = False
    TENANTS = ("alice", "bob")
    OPS_PER_TENANT = 380
    UPLOAD_SHARE = 0.7
    SHAPE = FileShape(
        min_kb=4,
        max_kb=32,
        unit_kb=4,
        dup_file_prob=0.2,
        dup_chunk_prob=0.3,
    )

    def deployment(self, root, seed, trace):
        return deploy.Fleet(root, seed, trace)

    def op_lists(self, seed: int, scale: float) -> List[List[Op]]:
        """Per tenant, a seeded interleaving of uploads and restores.

        A restore names a file the same tenant uploaded earlier in its
        own list, so it can never miss, whatever the threads' pace.
        """
        count = max(4, round(self.OPS_PER_TENANT * scale))
        shared_units: List[bytes] = []
        shared_lock = threading.Lock()
        # The same pad over every 4 KiB unit: equal units stay equal.
        shape = self.SHAPE
        pad = unique_bytes(shape.unit_kb << 10, seed=seed) * (
            shape.max_kb // shape.unit_kb
        )

        def salted(payload: bytes) -> bytes:
            size = len(payload)
            return (
                int.from_bytes(payload, "big")
                ^ int.from_bytes(pad[:size], "big")
            ).to_bytes(size, "big")

        lists = []
        for index, tenant in enumerate(self.TENANTS):
            rng = random.Random(SHAPE_SEED * 1_000_003 + index)
            forge = PayloadForge(self.SHAPE, rng, shared_units, shared_lock)
            uploads: List[Op] = []
            ops: List[Op] = []
            for number in range(count):
                if uploads and rng.random() >= self.UPLOAD_SHARE:
                    ops.append(_restore_of(rng.choice(uploads)))
                else:
                    uploads.append(
                        _upload_op(
                            f"{tenant}/{number:05d}", salted(forge.payload())
                        )
                    )
                    ops.append(uploads[-1])
            lists.append(ops)
        return lists

    def run(self, harness, seed, scale):
        lists = self.op_lists(seed, scale)
        deployment = harness.deployment
        clients = [
            deployment.client(tenant, batch_size=4096)
            for tenant in self.TENANTS
        ]
        harness.run_phase("mixed", list(zip(clients, lists)))
        routed: Dict[int, int] = {}
        for client, ops in zip(clients, lists):
            harness.read_back(client, [op for op in ops if op.kind == UPLOAD])
            for shard, keys in client.provider.routed_counts().items():
                routed[shard] = routed.get(shard, 0) + keys
        return {
            "routed": routed,
            "breaker_opens": deployment.breaker_opens(),
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FreshInproc(), IncrementalTcp(), SmallfilesFleet())
}
