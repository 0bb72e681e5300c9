"""One round of a workload, and the metrics computed from rounds.

End-to-end metrics come from untraced rounds, per-layer metrics from
traced rounds. A metric's value for a run is the median over its rounds;
latency percentiles pool the per-operation samples of all rounds, which
is sound because every round runs the same operation list.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.kld import kld_from_frequencies, storage_blowup
from repro.crypto.hashes import digest

import deploy
import spans as sp
from workloads import RESTORE, UPLOAD, Harness, Workload

MIB = float(1 << 20)
GIB = float(1 << 30)

@dataclass
class Round:
    """Everything one round measured."""

    traced: bool
    setup_s: float
    timed_s: float
    attempted: int
    failed: int  # operations that raised or restored the wrong bytes
    errors: List[str]  # the failed operations and any check that did not hold
    upload_seconds: List[float]  # per-operation latencies, timed phases
    restore_seconds: List[float]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    exact: Dict[str, float]  # must repeat exactly on one client thread
    t_history: List[int] = field(default_factory=list)


def run_round(
    workload: Workload,
    seed: int,
    scale: float,
    traced: bool,
    work_dir: Path,
    corrupt_restore: Optional[int] = None,
) -> Round:
    """Set up, run and tear down ``workload`` once."""
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        with tempfile.TemporaryDirectory(dir=work_dir, prefix="round-") as root:
            deployment = workload.deployment(Path(root), seed, traced)
            try:
                deployment.start()
                harness = Harness(deployment, corrupt_restore)
                clock = _CpuClock(deployment)
                harness.on_first_phase = clock.start
                facts = workload.run(harness, seed, scale)
                clock.stop()
                deployment.close()
                return _assemble(
                    workload, harness, facts, clock, started, scale
                )
            finally:
                deployment.abort()
    finally:
        try:
            work_dir.rmdir()
        except OSError:
            pass  # another run in this checkout still uses it


class _CpuClock:
    """CPU of this process and the servers, over the timed phases."""

    def __init__(self, deployment: deploy.Deployment) -> None:
        self._deployment = deployment
        self.setup_done = 0.0
        self.cpu_s = 0.0

    def _now(self) -> float:
        return time.process_time() + self._deployment.servers_cpu_s()

    def start(self) -> None:
        self.setup_done = time.monotonic()
        self._begin = self._now()

    def stop(self) -> None:
        self.cpu_s = self._now() - self._begin


# -- helpers ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _latency_ms(seconds: Sequence[float], q: float) -> float:
    return 1e3 * percentile(seconds, q)


def _entropy_bits(counts: Sequence[int]) -> float:
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts)


def _by_role(dumps, *roles: str):
    return [dump for dump in dumps if dump["role"] in roles]


def _registry_sum(dumps, key: str) -> float:
    return sum(dump["counters"]["registry"].get(key, 0) for dump in dumps)


def _in_windows(span, windows) -> bool:
    return any(lo <= span[sp.START] and span[sp.END] <= hi for lo, hi in windows)


# -- assembling one round -----------------------------------------------------------


def _assemble(workload, harness, facts, clock, started, scale) -> Round:
    deployment = harness.deployment
    dumps = deployment.dumps
    wire = deployment.wire_totals
    disk_bytes = deployment.disk_bytes()
    samples = harness.all_samples()
    timed = [s for phase in harness.phases for s in phase.samples]
    uploads = [s for s in timed if s.op.kind == UPLOAD]
    restores = [s for s in timed if s.op.kind == RESTORE]
    errors = [f"{s.op.kind} {s.op.name}: {s.error}" for s in samples if s.error]
    errors += harness.read_back_errors
    failed = len(errors)  # operations; the checks below add to errors only

    upload_bytes = sum(s.op.size for s in uploads if s.ok)
    restore_bytes = sum(s.op.size for s in restores if s.ok)
    all_upload_bytes = sum(
        s.op.size for s in samples if s.op.kind == UPLOAD and s.ok
    )
    phases = {phase.name: phase for phase in harness.phases}
    upload_wall = phases.get("upload", phases.get("mixed")).wall_s
    restore_wall = phases.get("restore", phases.get("mixed")).wall_s
    timed_s = sum(phase.wall_s for phase in harness.phases)

    plain = Counter(harness.plain_ids)
    cipher = Counter(harness.cipher_ids)
    blowup = storage_blowup(len(cipher), len(plain))
    kld = kld_from_frequencies(list(cipher.values()))
    entropy = _entropy_bits(list(cipher.values()))

    servers_rss = deployment.servers_peak_rss_mib()
    client_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "upload_mibps": upload_bytes / MIB / upload_wall,
        "restore_mibps": restore_bytes / MIB / restore_wall,
        "cpu_s_per_gib": clock.cpu_s / ((upload_bytes + restore_bytes) / GIB),
        "peak_rss_mib": client_rss + servers_rss,
        "disk_bytes_per_user_byte": disk_bytes / all_upload_bytes,
        "storage_blowup": blowup,
        "cipher_entropy_bits": entropy,
    }

    km_dumps = _by_role(dumps, "km", "km-front")
    km = km_dumps[-1]["counters"]
    provider_dumps = _by_role(dumps, "provider")
    index = Counter()
    containers = Counter()
    for dump in provider_dumps:
        index.update(dump["counters"]["index"])
        containers.update(dump["counters"]["containers"])
    fpcache = facts.get("fpcache", {})
    lookups = fpcache.get("hits", 0) + fpcache.get("misses", 0)
    routed = facts.get("routed", {})
    container_lookups = (
        containers["container_reads"] + containers["cache_hits"]
    )
    per_layer = {
        "km.kld": kld,
        "km.retunes": km["service"]["batches_tuned"],
        "km.t_final": km["service"]["current_t"],
        "km.statelog_fsyncs": _registry_sum(
            _by_role(dumps, "km", "km-front", "km-shard"),
            "ted_wal_fsyncs_total",
        ),
        "client.fpcache_hit_ratio": (
            fpcache.get("hits", 0) / lookups if lookups else 0.0
        ),
        "wire.retries": wire["client_retries"],
        "wire.reconnects": wire["client_reconnects"],
        "wire.busy_rejects": wire["client_busy"],
        "storage.index_flushes": index["flushes"],
        "storage.index_compactions": index["compactions"],
        "storage.container_seals": containers["containers_sealed"],
        "storage.container_cache_hit_ratio": (
            containers["cache_hits"] / container_lookups
            if container_lookups
            else 0.0
        ),
        "storage.wal_fsyncs": _registry_sum(
            provider_dumps, "ted_wal_fsyncs_total"
        ),
        "storage.wal_fsync_s": _registry_sum(
            provider_dumps, "ted_wal_fsync_seconds_sum"
        ),
        "storage.recovery_s": facts.get("recovery_s", 0.0),
        "fleet.shard_imbalance": (
            max(routed.values()) / (sum(routed.values()) / len(routed))
            if routed
            else 0.0
        ),
        "fleet.breaker_opens": facts.get("breaker_opens", 0),
    }
    exact = {
        "storage_blowup": blowup,
        "km.kld": kld,
        "disk_bytes": disk_bytes,
        **{
            name: per_layer[name]
            for name in (
                "km.retunes",
                "km.t_final",
                "storage.index_flushes",
                "storage.container_seals",
            )
        },
    }
    if deployment.recorder is not None:
        traced_layers = _traced_per_layer(
            deployment, harness, index, containers, km, uploads, restores
        )
        per_layer.update(traced_layers)
        exact.update(
            {
                name: traced_layers[name]
                for name in ("client.put_calls", "client.get_calls")
            }
        )

    if scale >= 1:
        errors += workload.unmet_claims(per_layer, facts)

    return Round(
        traced=deployment.recorder is not None,
        setup_s=clock.setup_done - started,
        timed_s=timed_s,
        attempted=len(samples),
        failed=failed,
        errors=errors,
        upload_seconds=[s.seconds for s in uploads],
        restore_seconds=[s.seconds for s in restores],
        end_to_end=end_to_end,
        per_layer=per_layer,
        exact=exact,
        t_history=km["t_history"],
    )


def _traced_per_layer(
    deployment, harness, index, containers, km, uploads, restores
) -> Dict[str, float]:
    """Per-layer times and call counts from the spans of a traced round."""
    windows = [(phase.start_ns, phase.end_ns) for phase in harness.phases]
    client_spans = [
        s for s in deployment.recorder.spans if _in_windows(s, windows)
    ]
    server_spans = {
        id(dump): [s for s in dump["spans"] if _in_windows(s, windows)]
        for dump in deployment.dumps
    }
    # Span ids are per process: self time is worked out per span list.
    own: Dict[str, float] = Counter(sp.self_seconds(client_spans))
    total: Dict[str, float] = Counter(sp.total_seconds(client_spans))
    count: Dict[str, int] = Counter(sp.counts(client_spans))
    everything = list(client_spans)
    for spans in server_spans.values():
        own.update(sp.self_seconds(spans))
        total.update(sp.total_seconds(spans))
        count.update(sp.counts(spans))
        everything += spans

    def named(*names: str):
        return [s for s in everything if s[sp.NAME] in names]

    # The batched key-manager handler calls the plain one: the request's
    # handler span is whichever of the two is not nested in the other.
    batched = {s[sp.ID] for s in named("km.handle_batched")}
    km_handlers = named("km.handle_batched") + [
        s for s in named("km.handle") if s[sp.PARENT] not in batched
    ]
    in_process = isinstance(deployment, deploy.InProcess)
    on_fleet = isinstance(deployment, deploy.Fleet)
    overhead = {}
    for kind, calls, handlers in (
        ("keygen", named("client.keygen_wait"), km_handlers),
        ("put", named(deployment.wire_span.format("put")), named("provider.put")),
        ("get", named(deployment.wire_span.format("get")), named("provider.get")),
    ):
        if in_process:
            overhead[kind] = 0.0  # no wire: the call is the handler
            continue
        overhead[kind], unmatched = sp.join_handlers(calls, handlers)
        if unmatched:
            print(
                f"warning: {unmatched} {kind} handler spans matched no "
                "client call",
                file=sys.stderr,
            )

    # Fingerprinting happens inside the client with no seam to time it at:
    # replay it over chunks of the same sizes. Every chunk is hashed once
    # as plaintext, and once more as ciphertext if it was encrypted.
    sizes = deployment.chunk_sizes or [
        len(chunk)
        for sample in harness.all_samples()
        if sample.op.chunks
        for chunk in sample.op.chunks
    ]
    buffer = bytes(max(sizes, default=0))
    start = time.perf_counter()
    for size in sizes:
        digest(buffer[:size], "sha256")
    for size in sizes[: count["client.encrypt"]]:
        digest(buffer[:size], "sha256")
    fingerprint_s = time.perf_counter() - start

    op_wall = total["op.upload"] + total["op.restore"]
    op_self = own["op.upload"] + own["op.restore"]
    wait_names = [
        f"client.{kind}_wait" for kind in ("put", "get", "recipe_put", "recipe_get")
    ]
    handle_s = sum((s[sp.END] - s[sp.START]) / 1e9 for s in km_handlers)
    # The index's read counters cover the whole round, so does this count.
    index_gets = sum(
        s[sp.NAME] == "storage.index_get"
        for spans in [deployment.recorder.spans]
        + [dump["spans"] for dump in deployment.dumps]
        for s in spans
    )
    chunk_reads = count["storage.container_read"]
    return {
        "client.chunk_s": total["client.chunk"],
        "client.encrypt_s": total["client.encrypt"],
        "client.decrypt_s": total["client.decrypt"],
        "client.fingerprint_s": fingerprint_s,
        "client.keygen_wait_s": total["client.keygen_wait"],
        "client.put_wait_s": total["client.put_wait"],
        "client.get_wait_s": total["client.get_wait"],
        "client.recipe_wait_s": (
            total["client.recipe_put_wait"] + total["client.recipe_get_wait"]
        ),
        "client.keygen_calls": count["client.keygen_wait"],
        "client.put_calls": count["client.put_wait"],
        "client.get_calls": count["client.get_wait"],
        "client.self_s": op_self,
        "client.upload_p95_ms": _latency_ms(
            [s.seconds for s in uploads], 0.95
        ),
        # Only the fleet's rounds have the samples for a 99th percentile.
        "client.upload_p99_ms": (
            _latency_ms([s.seconds for s in uploads], 0.99) if on_fleet else 0.0
        ),
        "client.restore_p99_ms": (
            _latency_ms([s.seconds for s in restores], 0.99)
            if on_fleet
            else 0.0
        ),
        "wire.keygen_overhead_s": overhead["keygen"],
        "wire.put_overhead_s": overhead["put"],
        "wire.get_overhead_s": overhead["get"],
        "km.handle_s": handle_s,
        # On the fleet the front selects seeds itself: its handler's self
        # time; the observers' self time is their state log.
        "km.seeds_s": own["km.handle"] if on_fleet else total["km.seeds"],
        "km.statelog_s": (
            own["km.observe_handle"] if on_fleet else total["km.statelog"]
        ),
        "km.observe_fanout_s": total["km.observe_fanout"],
        "km.keys_per_call": (
            km["requests"] / max(1, count["client.keygen_wait"])
        ),
        "provider.put_s": total["provider.put"],
        "provider.get_s": total["provider.get"],
        "provider.recipe_put_s": total["provider.recipe_put"],
        "provider.recipe_get_s": total["provider.recipe_get"],
        "storage.index_get_s": total["storage.index_get"],
        "storage.index_put_s": own["storage.index_put"],
        "storage.index_maint_s": total["storage.index_flush"],
        "storage.index_table_reads_per_get": (
            index["table_reads"] / index_gets if index_gets else 0.0
        ),
        "storage.container_append_s": total["storage.container_append"],
        "storage.container_read_s": total["storage.container_read"],
        "storage.container_fetches_per_chunk": (
            containers["container_reads"] / chunk_reads if chunk_reads else 0.0
        ),
        "fleet.route_self_s": (
            sum(own[name] for name in wait_names) if on_fleet else 0.0
        ),
        "fleet.subbatches_per_put": (
            count["fleet.shard_put"] / max(1, count["client.put_wait"])
            if on_fleet
            else 0.0
        ),
        "trace.accounted_ratio": (
            1.0 - max(0.0, op_self - fingerprint_s) / op_wall
        ),
    }


# -- a run's metrics from its rounds ---------------------------------------------------


def _median(rounds: Sequence[Round], pick) -> float:
    return statistics.median(pick(r) for r in rounds)


def end_to_end_metrics(rounds: Sequence[Round]) -> Dict[str, float]:
    """The run's end-to-end metrics from its untraced rounds."""
    metrics = {
        name: _median(rounds, lambda r, n=name: r.end_to_end[n])
        for name in rounds[0].end_to_end
    }
    uploads = [s for r in rounds for s in r.upload_seconds]
    restores = [s for r in rounds for s in r.restore_seconds]
    metrics.update(
        upload_p50_ms=_latency_ms(uploads, 0.50),
        restore_p50_ms=_latency_ms(restores, 0.50),
        restore_p95_ms=_latency_ms(restores, 0.95),
        setup_s=_median(rounds, lambda r: r.setup_s),
    )
    return metrics


def per_layer_metrics(
    traced: Sequence[Round], untraced: Sequence[Round]
) -> Dict[str, float]:
    """The run's per-layer metrics from its traced rounds."""
    metrics = {
        name: _median(traced, lambda r, n=name: r.per_layer[n])
        for name in traced[0].per_layer
    }
    metrics["trace.overhead_ratio"] = (
        _median(traced, lambda r: r.timed_s)
        / _median(untraced, lambda r: r.timed_s)
        - 1.0
    )
    return metrics


def determinism_errors(rounds: Sequence[Round]) -> List[str]:
    """Exact quantities that differ between rounds of the same seed."""
    errors = []
    first = rounds[0]
    for other in rounds[1:]:
        for name in first.exact.keys() & other.exact.keys():
            if first.exact[name] != other.exact[name]:
                errors.append(
                    f"{name} differs between rounds of one seed: "
                    f"{first.exact[name]!r} vs {other.exact[name]!r}"
                )
    return errors
