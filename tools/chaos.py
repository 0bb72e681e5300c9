#!/usr/bin/env python
"""Chaos matrix for the multi-process shard fleet (DESIGN.md §17).

Spawns N ``repro serve-shard`` processes (provider storage leaves, or
KM sketch observers), drives a seeded sequential workload through the
fleet client, and injects one whole-process fault per round on each
shard in turn:

* **kill** — SIGKILL the shard, later restart it (crash + §12 recovery).
* **pause** — SIGSTOP/SIGCONT (alive but silent: the io-timeout path).
* **partition** — cut the shard's TCP proxy (refused instantly: the
  network failed, the process did not).

Clients reach every shard through a local TCP proxy so a partition is a
real connection-level event, not an in-process flag. After each fault
the harness asserts the degraded-mode contract — failures are *typed*
(``ShardUnavailableError`` or a transport error, never a hang longer
than the stall budget), operations on healthy shards keep succeeding —
then heals the fault and waits for the breaker to report the rejoin.

End-of-run verification (provider target):

1. **Zero acked-data loss** — every acknowledged upload downloads
   byte-identical through the healed fleet.
2. **Serial parity** — replaying the exact attempt log (including the
   failed attempts, which consumed key-generation draws) against a
   fresh in-process fleet of the same shape yields a bit-identical KM
   sketch, equal recipes for every acked file, and an equal
   unique-chunk count: the chaos run converged to the state a
   failure-free run produces.
3. **Clean fsck** — each shard leaf passes ``fsck`` after a SIGTERM
   shutdown (the serve-shard close path seals containers).
4. **Failure-domain metrics** — ``ted_shard_failover_total`` recorded
   at least one ``open`` and one ``rejoin`` transition, and
   ``ted_breaker_state``/``ted_shard_health`` exist for every shard.

The KM target runs the same fault matrix against observer processes;
sketch parity is skipped there (a keygen aborted mid-fan-out legally
re-observes sub-batches on retry), and convergence is asserted as
"after restart + heal, every file re-uploads and downloads cleanly and
the restarted observer restored durable state".

Used by the ``chaos-smoke`` CI job; also importable from tests
(``run_chaos`` returns the report dict instead of exiting).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core.ted import TedKeyManager
from repro.crypto.cipher import get_profile
from repro.obs import metrics as obs_metrics
from repro.storage.recipe import FileRecipe, unseal
from repro.storage.scrub import fsck_path
from repro.tedstore.client import TedStoreClient
from repro.tedstore.fleet import LocalFleet, MultiShardProvider
from repro.tedstore.health import ShardUnavailableError
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.messages import GetRecipes, ProtocolError
from repro.tedstore.network import probe_endpoint
from repro.tedstore.provider import ProviderService
from repro.tedstore.retry import DeadlineExceeded, RetryPolicy
from repro.tedstore.ring import HashRing, store_ring

FAULT_KINDS = ("kill", "pause", "partition")

#: Failures the degraded-mode contract permits a client to see. Anything
#: outside this set (or any stall past the budget) fails the run.
TYPED_FAILURES = (
    ShardUnavailableError,
    DeadlineExceeded,
    ConnectionError,
    TimeoutError,
    OSError,
    ProtocolError,
)

RING_SEED = 0
SKETCH_WIDTH = 2**16
KM_SECRET = b"chaos-secret"
MASTER_KEY = hashlib.sha256(b"chaos-master").digest()


class HarnessError(AssertionError):
    """A chaos invariant did not hold."""


def _free_port() -> int:
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TcpProxy:
    """Byte-pump proxy with a partition switch.

    The fleet client dials the proxy; the proxy dials the shard. A
    partition closes every active pipe and refuses new connects until
    healed, so the client observes connection resets/refusals at the
    socket layer while the shard process itself stays healthy — the
    network failed, not the process.
    """

    def __init__(self, upstream_port: int) -> None:
        self.upstream = ("127.0.0.1", upstream_port)
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._partitioned = False
        self._closed = False
        self._lock = threading.Lock()
        self._pipes: set = set()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"proxy:{self.port}", daemon=True
        )
        self._thread.start()

    def partition(self) -> None:
        with self._lock:
            self._partitioned = True
            pipes = list(self._pipes)
        for sock in pipes:
            try:
                sock.close()
            except OSError:
                pass

    def heal(self) -> None:
        with self._lock:
            self._partitioned = False

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                refused = self._partitioned or self._closed
            if refused:
                client.close()
                continue
            try:
                upstream = socket.create_connection(self.upstream, timeout=5)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._pipes.update((client, upstream))
            for a, b in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump, args=(a, b), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:
                    pass
            with self._lock:
                self._pipes.discard(src)
                self._pipes.discard(dst)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.partition()
        try:
            self._listener.close()
        except OSError:
            pass


class ShardProc:
    """One serve-shard child process and its failure-domain controls."""

    def __init__(
        self,
        role: str,
        shard_id: int,
        root: Path,
        port: int,
        log_dir: Path,
    ) -> None:
        self.role = role
        self.shard_id = shard_id
        self.root = root
        self.port = port
        self.log_path = log_dir / f"{role}-shard-{shard_id}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.paused = False

    def command(self) -> List[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve-shard",
            "--role",
            self.role,
            "--shard",
            str(self.shard_id),
            "--root",
            str(self.root),
            "--port",
            str(self.port),
        ]
        if self.role == "km":
            cmd += [
                "--secret",
                KM_SECRET.decode(),
                "--sketch-width",
                str(SKETCH_WIDTH),
            ]
        return cmd

    def start(self, ready_timeout: float = 20.0) -> None:
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.command(), stdout=log, stderr=subprocess.STDOUT, env=env
        )
        log.close()
        self.paused = False
        deadline = time.monotonic() + ready_timeout
        while True:
            try:
                probe_endpoint(("127.0.0.1", self.port), timeout=1.0)
                return
            except Exception:
                if self.proc.poll() is not None:
                    raise HarnessError(
                        f"{self.role} shard {self.shard_id} exited "
                        f"rc={self.proc.returncode} before serving "
                        f"(see {self.log_path})"
                    )
                if time.monotonic() > deadline:
                    raise HarnessError(
                        f"{self.role} shard {self.shard_id} not ready "
                        f"within {ready_timeout}s"
                    )
                time.sleep(0.05)

    def kill(self) -> None:
        assert self.proc is not None
        self.proc.kill()
        self.proc.wait(timeout=10)

    def pause(self) -> None:
        assert self.proc is not None
        os.kill(self.proc.pid, signal.SIGSTOP)
        self.paused = True

    def resume(self) -> None:
        assert self.proc is not None
        os.kill(self.proc.pid, signal.SIGCONT)
        self.paused = False

    def terminate(self, timeout: float = 15.0) -> int:
        """SIGTERM and wait: the drain-and-seal shutdown path."""
        assert self.proc is not None
        if self.paused:
            self.resume()
        self.proc.terminate()
        return self.proc.wait(timeout=timeout)

    def stop_hard(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            if self.paused:
                self.resume()
            self.proc.kill()
            self.proc.wait(timeout=10)

    def banner(self) -> str:
        try:
            return self.log_path.read_text()
        except OSError:
            return ""


def _make_front() -> TedKeyManager:
    # Seeded RNG (the paper's Eq. 3 draw is injectable by design): the
    # chaos front and the serial-replay front consume identical random
    # streams, which upgrades "convergent state" to bit-identical
    # seeds, ciphertexts, and recipes.
    return TedKeyManager(
        secret=KM_SECRET,
        blowup_factor=1.05,
        batch_size=48_000,
        sketch_width=SKETCH_WIDTH,
        rng=random.Random(0xC8A05),
    )


def _make_client(km_transport, provider_transport) -> TedStoreClient:
    # Sequential (workers=1) on purpose: the attempt log then maps
    # one-to-one onto the key manager's RNG stream, which is what makes
    # the serial-replay parity check exact (DESIGN.md §17).
    return TedStoreClient(
        km_transport,
        provider_transport,
        master_key=MASTER_KEY,
        profile=get_profile("shactr"),
        sketch_width=SKETCH_WIDTH,
        batch_size=4096,
    )


class Workload:
    """Seeded file stream with dedup overlap; records every attempt."""

    def __init__(self, seed: int, size_kb: int) -> None:
        self._rng = random.Random(seed)
        self.size = size_kb << 10
        self.data: Dict[str, bytes] = {}
        self.attempts: List[dict] = []
        self._counter = 0

    def next_file(self) -> Tuple[str, bytes]:
        name = f"f{self._counter:04d}"
        self._counter += 1
        if self.data and self._rng.random() < 0.3:
            data = self._rng.choice(sorted(self.data))
            payload = self.data[data]
        else:
            payload = self._rng.randbytes(self.size)
        self.data[name] = payload
        return name, payload

    def record(self, name: str, acked: bool, seconds: float, error: str) -> None:
        self.attempts.append(
            {
                "name": name,
                "acked": acked,
                "seconds": round(seconds, 4),
                "error": error,
            }
        )


def _attempt_upload(
    client: TedStoreClient,
    workload: Workload,
    name: str,
    data: bytes,
    stall_budget: float,
) -> bool:
    start = time.monotonic()
    error = ""
    try:
        client.upload(name, data)
        acked = True
    except TYPED_FAILURES as exc:
        acked = False
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - start
    if elapsed > stall_budget:
        raise HarnessError(
            f"upload {name} stalled {elapsed:.2f}s "
            f"(budget {stall_budget:.2f}s)"
        )
    workload.record(name, acked, elapsed, error)
    return acked


def _wait_all_closed(shard_health, timeout: float = 20.0) -> None:
    """Poll a ``shard -> breaker state`` view until every shard rejoins."""
    deadline = time.monotonic() + timeout
    while True:
        states = shard_health()
        if all(state == "closed" for state in states.values()):
            return
        if time.monotonic() > deadline:
            raise HarnessError(f"shards never rejoined: {states}")
        time.sleep(0.1)


def _failover_counts() -> Dict[str, int]:
    counter = obs_metrics.get_registry().get("ted_shard_failover_total")
    counts = {"open": 0, "rejoin": 0}
    if counter is not None:
        for labels, child in counter.children():
            event = labels[-1]
            if event in counts:
                counts[event] += int(child.value)
    return counts


def run_chaos(
    target: str = "provider",
    shards: int = 3,
    seed: int = 2013,
    faults: Tuple[str, ...] = FAULT_KINDS,
    uploads_per_phase: int = 3,
    size_kb: int = 48,
    stall_budget: float = 10.0,
    workdir: Optional[Path] = None,
) -> dict:
    """Run the fault matrix; returns the report dict, raises on failure."""
    if target not in ("provider", "km"):
        raise ValueError(f"unknown target {target!r}")
    for fault in faults:
        if fault not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {fault!r}")

    own_workdir = workdir is None
    workdir = Path(
        workdir or tempfile.mkdtemp(prefix=f"ted-chaos-{target}-")
    )
    root = workdir / ("fleet" if target == "provider" else "km_root")
    root.mkdir(parents=True, exist_ok=True)
    log_dir = workdir / "logs"
    log_dir.mkdir(exist_ok=True)

    started = time.monotonic()
    shard_ids = list(range(shards))
    real_ports = {k: _free_port() for k in shard_ids}
    proxies = {k: TcpProxy(real_ports[k]) for k in shard_ids}
    ring = HashRing.build(shards, seed=RING_SEED).with_endpoints(
        {k: f"127.0.0.1:{proxies[k].port}" for k in shard_ids}
    )
    store_ring(root / "ring.json", ring)

    role = "provider" if target == "provider" else "km"
    procs = {
        k: ShardProc(role, k, root, real_ports[k], log_dir)
        for k in shard_ids
    }
    front = _make_front()
    fleet_provider = None
    km_service = None
    report: dict = {
        "target": target,
        "shards": shards,
        "seed": seed,
        "faults": list(faults),
        "rounds": [],
    }
    workload = Workload(seed, size_kb)

    try:
        for proc in procs.values():
            proc.start()

        fleet_tuning = dict(
            retry_policy=RetryPolicy(
                max_attempts=2,
                base_delay=0.05,
                max_delay=0.2,
                deadline=stall_budget * 0.8,
            ),
            breaker_failures=2,
            breaker_reset=0.5,
            heartbeat_interval=0.25,
            probe_timeout=1.0,
            connect_timeout=1.5,
            io_timeout=2.0,
        )
        if target == "provider":
            fleet_provider = MultiShardProvider(ring, **fleet_tuning)
            km_service = KeyManagerService(front)
            client = _make_client(
                LocalKeyManager(km_service), fleet_provider
            )
            shard_health = fleet_provider.shard_health
        else:
            from repro.tedstore.sharding import ShardedKeyManager

            km_service = ShardedKeyManager(
                front, state_root=root, fleet_options=fleet_tuning
            )
            fleet_provider = LocalProvider(ProviderService(in_memory=True))
            client = _make_client(
                LocalKeyManager(km_service), fleet_provider
            )
            shard_health = km_service.shard_health

        _wait_all_closed(shard_health)

        # -- the fault matrix: every (fault, victim) pair ----------------
        for fault in faults:
            for victim in shard_ids:
                round_info = {"fault": fault, "victim": victim}
                for _ in range(uploads_per_phase):
                    name, data = workload.next_file()
                    if not _attempt_upload(
                        client, workload, name, data, stall_budget
                    ):
                        raise HarnessError(
                            f"healthy-phase upload {name} failed"
                        )

                if fault == "kill":
                    procs[victim].kill()
                elif fault == "pause":
                    procs[victim].pause()
                else:
                    proxies[victim].partition()

                acked = failed = 0
                for _ in range(uploads_per_phase):
                    name, data = workload.next_file()
                    if _attempt_upload(
                        client, workload, name, data, stall_budget
                    ):
                        acked += 1
                    else:
                        failed += 1
                round_info["degraded_acked"] = acked
                round_info["degraded_failed"] = failed

                if fault == "kill":
                    procs[victim].start()
                elif fault == "pause":
                    procs[victim].resume()
                else:
                    proxies[victim].heal()
                _wait_all_closed(shard_health)
                report["rounds"].append(round_info)

        # -- convergence: every attempted file must land on the healed
        # fleet (failed attempts replay byte-identically: provider puts
        # dedup, observer logs replay by batch id).
        for name in sorted(workload.data):
            if not _attempt_upload(
                client, workload, name, workload.data[name], stall_budget
            ):
                raise HarnessError(f"post-heal re-upload of {name} failed")

        # -- verification 1: zero acked-data loss ------------------------
        verified = 0
        for name, payload in sorted(workload.data.items()):
            restored = client.download(name)
            if restored != payload:
                raise HarnessError(f"acked file {name} corrupted")
            verified += 1
        report["verified_downloads"] = verified

        # -- verification 4: failure-domain metrics ----------------------
        failovers = _failover_counts()
        if failovers["open"] < 1 or failovers["rejoin"] < 1:
            raise HarnessError(
                f"expected breaker open+rejoin transitions, got {failovers}"
            )
        report["failovers"] = failovers
        registry = obs_metrics.get_registry()
        for metric in ("ted_breaker_state", "ted_shard_health"):
            if registry.get(metric) is None:
                raise HarnessError(f"metric {metric} never registered")

        # -- verification 2: serial-replay parity (provider target) ------
        if target == "provider":
            serial_front = _make_front()
            serial_fleet = LocalFleet(
                workdir / "serial",
                HashRing.build(shards, seed=RING_SEED),
                container_bytes=4 << 20,
            )
            serial_provider = serial_fleet.transport()
            serial_client = _make_client(
                LocalKeyManager(KeyManagerService(serial_front)),
                serial_provider,
            )
            for attempt in workload.attempts:
                serial_client.upload(
                    attempt["name"], workload.data[attempt["name"]]
                )
            if not np.array_equal(
                front.sketch._counters, serial_front.sketch._counters
            ):
                raise HarnessError("KM sketch diverged from serial run")
            if front.sketch.total != serial_front.sketch.total:
                raise HarnessError("KM sketch totals diverged")
            referenced: set = set()
            for name in sorted(workload.data):
                fleet_recipes = fleet_provider.get_recipes(
                    GetRecipes(file_name=name)
                )
                serial_recipes = serial_provider.get_recipes(
                    GetRecipes(file_name=name)
                )
                # Sealing is randomized (fresh nonce per seal), so
                # compare the recipe *plaintexts*, which are fully
                # determined by the chunk stream and the key stream.
                for field in ("sealed_file_recipe", "sealed_key_recipe"):
                    if unseal(
                        MASTER_KEY, getattr(fleet_recipes, field)
                    ) != unseal(MASTER_KEY, getattr(serial_recipes, field)):
                        raise HarnessError(f"recipes for {name} diverged")
                plain = unseal(MASTER_KEY, fleet_recipes.sealed_file_recipe)
                referenced.update(
                    fp for fp, _ in FileRecipe.deserialize(plain).entries
                )
            report["parity"] = {
                "sketch": True,
                "recipes": len(workload.data),
                "referenced_chunks": len(referenced),
            }
            serial_fleet.close()

        # -- shutdown + verification 3: SIGTERM then clean fsck ----------
        if fleet_provider is not None and hasattr(fleet_provider, "close"):
            fleet_provider.close()
        if target == "km":
            km_service.close()
        rcs = {k: procs[k].terminate() for k in shard_ids}
        if any(rc != 0 for rc in rcs.values()):
            raise HarnessError(f"unclean shard shutdown: {rcs}")
        if target == "provider":
            fleet_entries = 0
            for k in shard_ids:
                leaf = root / "shards" / str(k)
                stray = list(leaf.rglob("*.tmp"))
                if stray:
                    raise HarnessError(f"stray tmp files in shard {k}: {stray}")
                fsck = fsck_path(leaf)
                if not fsck.clean:
                    raise HarnessError(f"shard {k} fsck damaged")
                fleet_entries += fsck.index_entries_checked
            report["fsck_clean"] = shards
            # Chunk-union convergence against the serial store, on the
            # *durable index* (a restarted shard's runtime counters
            # reset; its index does not). The sandwich invariant:
            #   recipe-referenced chunks <= fleet <= serial.
            # The lower bound says every chunk the converged recipes
            # reference is durable (the downloads proved the bytes);
            # the upper bound says the chaos run stored nothing a
            # failure-free run would not have — failed attempts leave
            # no phantom chunks, only at most the stale-estimate
            # ciphertext versions the serial run also (re)stores.
            serial_entries = 0
            for leaf in sorted((workdir / "serial" / "shards").iterdir()):
                serial_fsck = fsck_path(leaf)
                if not serial_fsck.clean:
                    raise HarnessError("serial replay store fsck damaged")
                serial_entries += serial_fsck.index_entries_checked
            referenced_count = report["parity"]["referenced_chunks"]
            if not referenced_count <= fleet_entries <= serial_entries:
                raise HarnessError(
                    f"chunk union diverged: referenced={referenced_count} "
                    f"fleet={fleet_entries} serial={serial_entries}"
                )
            report["parity"]["unique_chunks"] = int(fleet_entries)
            report["parity"]["serial_chunks"] = int(serial_entries)
        else:
            # Observer restores ran during the kill rounds; the restart
            # banner proves durable state came back (§12 recovery).
            if "kill" in faults:
                restored = sum(
                    1
                    for k in shard_ids
                    if "deltas replayed=" in procs[k].banner()
                )
                if restored < shards:
                    raise HarnessError(
                        "observer restart banners missing restore report"
                    )
            report["restores_seen"] = shards

        attempts = workload.attempts
        acked_count = sum(1 for a in attempts if a["acked"])
        bytes_acked = sum(
            len(workload.data[a["name"]]) for a in attempts if a["acked"]
        )
        duration = time.monotonic() - started
        report.update(
            {
                "attempts": len(attempts),
                "acked": acked_count,
                "typed_errors": len(attempts) - acked_count,
                "max_attempt_seconds": max(a["seconds"] for a in attempts),
                "duration_seconds": round(duration, 3),
                "mib_per_second": round(
                    bytes_acked / duration / (1 << 20), 4
                ),
                "ok": True,
            }
        )
        return report
    finally:
        for proc in procs.values():
            proc.stop_hard()
        for proxy in proxies.values():
            proxy.close()
        if fleet_provider is not None and hasattr(fleet_provider, "close"):
            try:
                fleet_provider.close()
            except Exception:
                pass  # second close after a successful run
        if km_service is not None:
            try:
                km_service.close()
            except Exception:
                pass
        if own_workdir:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)


def merge_bench(report: dict, out: Optional[Path] = None) -> Path:
    """Merge a chaos summary into ``BENCH_load.json`` (same convention
    as :func:`repro.loadgen.report.write_bench`: one section per
    profile name, accumulated across calls)."""
    from repro.loadgen.report import DEFAULT_BENCH_OUT

    path = Path(
        out
        or os.environ.get("REPRO_BENCH_LOAD_OUT", str(DEFAULT_BENCH_OUT))
    )
    document: dict = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except ValueError:
            document = {}
    name = f"chaos_{report['target']}"
    document.setdefault("profiles", {})[name] = {
        "profile": name,
        "seed": report["seed"],
        "shards": report["shards"],
        "faults": report["faults"],
        "duration_seconds": report["duration_seconds"],
        "ops_total": report["attempts"],
        "errors_total": report["typed_errors"],
        "degraded_error_ratio": round(
            report["typed_errors"] / max(report["attempts"], 1), 6
        ),
        "max_stall_seconds": report["max_attempt_seconds"],
        "mib_per_second": report["mib_per_second"],
        "breached": False,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos matrix for the multi-process shard fleet"
    )
    parser.add_argument(
        "--target", choices=["provider", "km"], default="provider"
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--faults",
        default=",".join(FAULT_KINDS),
        help="comma-separated subset of kill,pause,partition",
    )
    parser.add_argument("--uploads-per-phase", type=int, default=3)
    parser.add_argument("--size-kb", type=int, default=48)
    parser.add_argument(
        "--stall-budget", type=float, default=10.0,
        help="hard ceiling on any single client operation, seconds",
    )
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="merge the summary into this BENCH_load.json",
    )
    args = parser.parse_args(argv)

    faults = tuple(
        f.strip() for f in args.faults.split(",") if f.strip()
    )
    try:
        report = run_chaos(
            target=args.target,
            shards=args.shards,
            seed=args.seed,
            faults=faults,
            uploads_per_phase=args.uploads_per_phase,
            size_kb=args.size_kb,
            stall_budget=args.stall_budget,
            workdir=Path(args.workdir) if args.workdir else None,
        )
    except HarnessError as exc:
        print(f"CHAOS FAILED: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"chaos[{report['target']}] ok: {report['attempts']} attempts, "
            f"{report['acked']} acked, {report['typed_errors']} typed "
            f"errors, max stall {report['max_attempt_seconds']:.2f}s, "
            f"{len(report['rounds'])} fault rounds in "
            f"{report['duration_seconds']:.1f}s"
        )
    if args.bench_out:
        path = merge_bench(report, Path(args.bench_out))
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
