"""The three deployment shapes the benchmark drives.

* :class:`InProcess` -- ``LocalKeyManager`` + ``LocalProvider`` in the
  benchmark's own process.
* :class:`SingleTcp` -- one key-manager process, one provider process.
* :class:`Fleet` -- a key-manager front, three sketch-observer processes
  and three provider shard processes.

Every server is a ``perfbook/serve.py`` child in its own process group,
listening on a port it got from bind-to-0, with all its state under the
deployment's root directory. :meth:`close` stops them with SIGTERM, a
bounded wait, then SIGKILL, and hands back what they dumped.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.chunking.cdc import ContentDefinedChunker
from repro.crypto.cipher import get_profile
from repro.obs import metrics as obs_metrics
from repro.tedstore.client import TedStoreClient
from repro.tedstore.fleet import MultiShardProvider
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    probe_endpoint,
)
from repro.tedstore.ring import HashRing

import serve
from spans import Recorder, TimedProxy, timed_iter

SERVE = Path(__file__).resolve().parent / "serve.py"
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
_TICK = os.sysconf("SC_CLK_TCK")

PROVIDER_CALLS = {
    "put_chunks": "put",
    "get_chunks": "get",
    "put_recipes": "recipe_put",
    "get_recipes": "recipe_get",
}


def provider_spans(name_format: str) -> Dict[str, str]:
    """Span name per provider-transport method, e.g. ``client.{}_wait``."""
    return {m: name_format.format(s) for m, s in PROVIDER_CALLS.items()}


class Child:
    """One ``serve.py`` process: started, signalled and reaped here."""

    def __init__(self, role: str, directory: Path, *args: str) -> None:
        self.role = role
        self.directory = directory
        self.dump_path = directory.with_suffix(".dump.json")
        self._args = args
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.rusage = None  # set once reaped
        self._terminated = False

    def start(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._stderr = open(self.directory.with_suffix(".stderr"), "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(SERVE),
                "--role",
                self.role,
                "--dir",
                str(self.directory),
                "--dump",
                str(self.dump_path),
                *self._args,
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,  # its own process group
        )

    def wait_ready(self) -> None:
        """Block until the child printed ``READY <port>``."""
        deadline = time.monotonic() + READY_TIMEOUT
        fd = self.proc.stdout.fileno()
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError(f"{self.role} server did not become ready")
            data = os.read(fd, 256)
            if not data:
                raise RuntimeError(
                    f"{self.role} server exited before it was ready; see "
                    f"{self._stderr.name}"
                )
            line += data
        self.port = int(line.split()[1])

    @property
    def address(self) -> Tuple[str, int]:
        return ("127.0.0.1", self.port)

    def cpu_s(self) -> float:
        """User + system CPU so far (final once the child is reaped)."""
        if self.rusage is not None:
            return self.rusage.ru_utime + self.rusage.ru_stime
        fields = (
            Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1]
        ).split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def checkpoint(self) -> Dict[str, object]:
        """SIGUSR1: the child flushes, then writes its dump; returns it."""
        self.dump_path.unlink(missing_ok=True)
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + STOP_TIMEOUT
        while not self.dump_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.role} server did not checkpoint")
            time.sleep(0.001)
        return json.loads(self.dump_path.read_text())

    def _reap(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.proc.stdout.close()
                self._stderr.close()
                return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)

    def kill(self) -> None:
        """SIGKILL the whole process group and reap."""
        if self.proc is None or self.rusage is not None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap(STOP_TIMEOUT)

    def terminate(self) -> None:
        """SIGTERM, once; :meth:`stop` waits for the exit."""
        if self.proc is None or self.rusage is not None or self._terminated:
            return
        self._terminated = True
        os.kill(self.proc.pid, signal.SIGTERM)

    def stop(self) -> Optional[Dict[str, object]]:
        """SIGTERM, bounded wait, SIGKILL; returns the dump if it exited 0."""
        if self.proc is None or self.rusage is not None:
            return None
        self.terminate()
        if not self._reap(STOP_TIMEOUT):
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"{self.role} server exited with {self.proc.returncode}; "
                f"see {self._stderr.name}"
            )
        return json.loads(self.dump_path.read_text())


class TimedChunker:
    """The default chunker with a span around every chunk it cuts.

    Also notes each chunk's length, so the traced run can replay the
    fingerprint hashing over the same bytes afterwards.
    """

    def __init__(self, recorder: Recorder, sizes: List[int]) -> None:
        self._chunker = ContentDefinedChunker()
        self._recorder = recorder
        self._sizes = sizes

    def chunk(self, data: bytes):
        for piece in timed_iter(
            self._chunker.chunk(data), self._recorder, "client.chunk"
        ):
            self._sizes.append(len(piece))
            yield piece


class Deployment:
    """What the workloads need from a shape; subclasses fill it in."""

    #: name of the span around a provider call that crosses the wire
    wire_span = "client.{}_wait"

    def __init__(self, root: Path, seed: int, trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.trace = trace
        self.recorder: Optional[Recorder] = Recorder() if trace else None
        self.children: List[Child] = []
        self.transports: List[object] = []
        self.wire_totals: Counter = Counter()  # of transports closed so far
        self.chunk_sizes: List[int] = []  # traced runs: for the digest replay
        self.dumps: List[Dict[str, object]] = []

    # -- shape-specific ---------------------------------------------------------

    def start(self) -> None:
        """Build the services / launch the servers (nothing runs before)."""
        raise NotImplementedError

    def transports_for(self, tenant: str) -> Tuple[object, object]:
        raise NotImplementedError

    def flush(self) -> None:
        """Durability barrier: seal open containers, flush indexes."""
        raise NotImplementedError

    # -- shared -----------------------------------------------------------------

    def _spawn(self, role: str, name: str, *args: str) -> Child:
        child = Child(
            role,
            self.root / name,
            "--seed",
            str(self.seed),
            "--trace",
            str(int(self.trace)),
            *args,
        )
        self.children.append(child)
        child.start()
        return child

    def client(self, tenant: str = "default", **knobs) -> TedStoreClient:
        """A client of this shape; ``knobs`` are the workload's client settings."""
        key_manager, provider = self.transports_for(tenant)
        self.transports += [key_manager, provider]
        parts = {"profile": get_profile("shactr")}
        if self.recorder is not None:
            key_manager = TimedProxy(
                key_manager,
                self.recorder,
                {
                    "keygen": "client.keygen_wait",
                    "keygen_batched": "client.keygen_wait",
                },
            )
            provider = TimedProxy(
                provider, self.recorder, provider_spans("client.{}_wait")
            )
            parts["chunker"] = TimedChunker(self.recorder, self.chunk_sizes)
            parts["profile"] = TimedProxy(
                parts["profile"],
                self.recorder,
                {"encrypt": "client.encrypt", "decrypt": "client.decrypt"},
            )
        return TedStoreClient(
            key_manager,
            provider,
            master_key=tenant.encode().ljust(32, b"\x07"),
            sketch_width=serve.SKETCH_WIDTH,
            **parts,
            **knobs,
        )

    def servers_cpu_s(self) -> float:
        return sum(child.cpu_s() for child in self.children)

    def servers_peak_rss_mib(self) -> float:
        """Summed peak RSS of the reaped servers (ru_maxrss is in KiB).

        A restarted server and the one it replaced never ran together,
        so a directory counts once, at the larger of the two.
        """
        peak: Dict[Path, int] = {}
        for child in self.children:
            if child.rusage is not None:
                peak[child.directory] = max(
                    peak.get(child.directory, 0), child.rusage.ru_maxrss
                )
        return sum(peak.values()) / 1024.0

    def state_dirs(self) -> Set[Path]:
        """The store and key-manager state directories."""
        return {child.directory for child in self.children}

    def disk_bytes(self) -> int:
        """Bytes under the store and key-manager state directories."""
        total = 0
        for directory in self.state_dirs():
            for path in directory.rglob("*"):
                # The index WAL's tail depends on where the last flush
                # fell relative to the kill, not on the work done.
                if path.is_file() and path.name != "wal.log":
                    total += path.stat().st_size
        return total

    def close_clients(self) -> None:
        for transport in self.transports:
            wire_stats = getattr(transport, "wire_stats", None)
            if wire_stats is not None:
                self.wire_totals.update(wire_stats())
            close = getattr(transport, "close", None)
            if close is not None:
                close()
        self.transports = []

    def close(self) -> None:
        """Stop everything; server dumps land in ``self.dumps``."""
        self.close_clients()
        # All at once: the clients are gone, so no server needs another,
        # and seven exits one after the other cost a fleet round 3.5 s.
        for child in self.children:
            child.terminate()
        errors = []
        for child in self.children:
            try:
                dump = child.stop()
            except Exception as exc:  # keep stopping the others
                errors.append(exc)
                child.kill()
            else:
                if dump is not None:
                    self.dumps.append(dump)
        if errors:
            raise errors[0]

    def abort(self) -> None:
        """Failure path: leave no process behind, whatever state we are in."""
        for child in self.children:
            child.kill()


class InProcess(Deployment):
    def start(self) -> None:
        self.key_manager = KeyManagerService(
            serve.make_key_manager(self.seed)
        )
        self.provider = serve.make_provider(self.root / "store", 8 << 20, 0)
        if self.recorder is not None:
            serve.instrument_key_manager(self.key_manager, self.recorder)
            serve.instrument_provider(self.provider, self.recorder)
        # The metrics registry is process-wide and outlives a round.
        self._registry_base = serve.registry_counters()

    def transports_for(self, tenant: str):
        return (
            LocalKeyManager(self.key_manager),
            LocalProvider(self.provider, tenant=tenant),
        )

    def flush(self) -> None:
        self.provider.flush()

    def state_dirs(self) -> Set[Path]:
        return {self.root / "store"}

    def close(self) -> None:
        self.close_clients()
        counters = serve.provider_counters(self.provider)
        counters["registry"] = {
            key: value - self._registry_base[key]
            for key, value in counters["registry"].items()
        }
        self.provider.close()
        self.key_manager.close()
        self.dumps = [
            {"role": "provider", "spans": [], "counters": counters},
            {
                "role": "km",
                "spans": [],
                "counters": {
                    **serve.key_manager_counters(self.key_manager),
                    "registry": {},
                },
            },
        ]


class SingleTcp(Deployment):
    def __init__(
        self,
        root: Path,
        seed: int,
        trace: bool,
        container_bytes: int = 8 << 20,
        memtable_bytes: int = 0,
    ) -> None:
        super().__init__(root, seed, trace)
        self._provider_args = (
            "--container-bytes",
            str(container_bytes),
            "--memtable-bytes",
            str(memtable_bytes),
        )

    def start(self) -> None:
        self.key_manager = self._spawn("km", "km")
        self.provider = self._spawn("provider", "store", *self._provider_args)
        for child in self.children:
            child.wait_ready()

    def transports_for(self, tenant: str):
        # Two data connections, as the CLI opens for a pipelined client.
        return (
            RemoteKeyManager(self.key_manager.address),
            RemoteProvider(
                self.provider.address, data_connections=2, tenant=tenant
            ),
        )

    def flush(self) -> None:
        self.dumps.append(self.provider.checkpoint())

    def crash_provider(self) -> float:
        """SIGKILL the provider, start it again on the same directory.

        Returns the seconds from the kill until the new process answers
        ``probe_endpoint``. The old process's last checkpoint dump stays
        in ``self.dumps``; its spans end there.
        """
        self.close_clients()
        start = time.monotonic()
        self.provider.kill()
        self.provider = self._spawn("provider", "store", *self._provider_args)
        self.provider.wait_ready()
        probe_endpoint(self.provider.address)
        return time.monotonic() - start


class Fleet(Deployment):
    SHARDS = 3
    wire_span = "fleet.shard_{}"

    def start(self) -> None:
        observers = [
            self._spawn("km-shard", f"km/shards/{k}", "--shard", str(k))
            for k in range(self.SHARDS)
        ]
        providers = [
            self._spawn("provider", f"store/shards/{k}", "--shard", str(k))
            for k in range(self.SHARDS)
        ]
        for child in observers + providers:
            child.wait_ready()
        ring = HashRing.build(self.SHARDS, seed=self.seed)
        self.ring = ring.with_endpoints(
            {k: f"127.0.0.1:{p.port}" for k, p in enumerate(providers)}
        )
        km_ring = ring.with_endpoints(
            {k: f"127.0.0.1:{o.port}" for k, o in enumerate(observers)}
        )
        ring_file = self.root / "km-ring.json"
        ring_file.write_text(km_ring.to_json())
        self.front = self._spawn(
            "km-front", "km/front", "--ring", str(ring_file)
        )
        self.front.wait_ready()

    def transports_for(self, tenant: str):
        def shard_transport(address):
            transport = RemoteProvider(address, tenant=tenant)
            if self.recorder is None:
                return transport
            return TimedProxy(
                transport, self.recorder, provider_spans(self.wire_span)
            )

        return (
            RemoteKeyManager(self.front.address),
            MultiShardProvider(
                self.ring, tenant=tenant, transport_factory=shard_transport
            ),
        )

    def breaker_opens(self) -> int:
        snapshot = obs_metrics.get_registry().snapshot()
        return int(
            sum(
                value
                for key, value in snapshot.items()
                if key.startswith("ted_shard_failover_total")
                and 'event="open"' in key
            )
        )
