"""Command-line interface for the TED/TEDStore reproduction.

Gives downstream users the paper's workflows without writing Python:

* ``serve-keymanager`` / ``serve-provider`` — run the TEDStore entities.
* ``serve-shard`` — run one shard of a fleet (a KM sketch observer or a
  provider storage leaf) as its own process and failure domain
  (DESIGN.md §17); SIGTERM drains and seals before exit.
* ``upload`` / ``download`` — move files through a running deployment.
* ``generate-trace`` — write synthetic FSL/MS-like snapshots to disk.
* ``analyze`` — trade-off analysis (KLD/blowup per scheme) on a trace file.
* ``tune`` — solve the Eq. 6-8 optimization for a trace and a blowup
  factor, printing the derived balance parameter ``t``.
* ``stats`` — query running TEDStore servers for their counters and
  metrics snapshots (table, JSON, or Prometheus output).
* ``fsck`` — verify (and with ``--repair``, heal) a provider storage
  root: container framing, per-chunk checksums, index reachability
  (DESIGN.md §12, docs/RUNBOOK.md).
* ``trace`` — run an in-process upload/download demo and print the
  resulting span tree plus a Prometheus metrics export (DESIGN.md §9).
* ``loadgen`` — run a declarative multi-tenant load profile against an
  in-process or TCP deployment, print per-op p50/p95/p99, throughput,
  and error rates from the obs registry, and exit nonzero on SLO
  breach (DESIGN.md §14).
* ``top`` — per-op qps/p99/error view of a load run, either replaying a
  finished flight-recorder file or following one being written.

Examples::

    python -m repro.cli generate-trace --flavor fsl --out /tmp/traces
    python -m repro.cli analyze /tmp/traces/fsl-0000.trc --b 1.05 1.2
    python -m repro.cli serve-keymanager --port 9401 &
    python -m repro.cli serve-provider --port 9402 --storage /tmp/store &
    python -m repro.cli upload  --km localhost:9401 --provider localhost:9402 \
        --master-key secret.bin myfile.bin
    python -m repro.cli download --km localhost:9401 --provider localhost:9402 \
        --master-key secret.bin myfile.bin --out restored.bin
"""

from __future__ import annotations

import argparse
import hashlib
import signal
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.tradeoff import make_fted
from repro.core.schemes import MLEScheme, MinHashScheme, SKEScheme
from repro.core.ted import TedKeyManager
from repro.core.tuning import solve
from repro.crypto.cipher import get_profile
from repro.tedstore.client import TedStoreClient
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    parse_endpoint,
    serve_key_manager,
    serve_provider,
)
from repro.tedstore.pipeline import stage_threads
from repro.tedstore.provider import ProviderService
from repro.traces.format import read_snapshot, write_dataset
from repro.traces.synthetic import generate_fsl_like, generate_ms_like


def _master_key(path: Optional[str]) -> bytes:
    if path is None:
        return b"\x01" * 32
    return hashlib.sha256(Path(path).read_bytes()).digest()


def _make_client(args: argparse.Namespace) -> TedStoreClient:
    workers = getattr(args, "workers", 1)
    crypto_workers = getattr(args, "crypto_workers", 0)
    cache = None
    if getattr(args, "fp_cache", 0) > 0:
        from repro.storage.dedup import FingerprintCache

        cache = FingerprintCache(capacity=args.fp_cache)
    # Stage threads overlap data frames with control round trips, which
    # is what dedicated data connections are for (DESIGN.md §10); an
    # inline client sends one request at a time and needs none.
    data_connections = 2 if stage_threads(workers, crypto_workers) else 0
    auth_token = b""
    if getattr(args, "auth_token", None):
        auth_token = Path(args.auth_token).read_bytes().strip()
    ring_file = getattr(args, "ring_file", None)
    if ring_file:
        # Fleet mode: the ring's endpoint map names one provider
        # process per shard; route sub-batches there directly with a
        # circuit breaker per shard (DESIGN.md §17).
        from repro.tedstore.fleet import MultiShardProvider
        from repro.tedstore.ring import load_ring

        ring = load_ring(ring_file)
        if not ring.endpoints:
            raise SystemExit(
                f"{ring_file} has no endpoint map; fleet mode needs "
                "per-shard endpoints (repro serve-shard)"
            )
        provider = MultiShardProvider(
            ring,
            tenant=getattr(args, "tenant", "") or "default",
            auth_token=auth_token,
            data_connections=data_connections,
            heartbeat_interval=getattr(args, "heartbeat_interval", 0.0),
        )
    else:
        provider = RemoteProvider(
            args.provider,
            data_connections=data_connections,
            tenant=getattr(args, "tenant", "") or "default",
            auth_token=auth_token,
        )
    return TedStoreClient(
        RemoteKeyManager(args.km),
        provider,
        master_key=_master_key(args.master_key),
        profile=get_profile(args.profile),
        sketch_width=args.sketch_width,
        batch_size=args.batch_size,
        workers=workers,
        pipeline_depth=getattr(args, "pipeline_depth", 4),
        fingerprint_cache=cache,
        crypto_workers=crypto_workers,
    )


def _run_server(handle, service) -> int:
    """Serve until SIGTERM/SIGINT, then drain and close cleanly.

    The shutdown order matters for crash-consistency guarantees:
    ``handle.stop()`` first (stop accepting, drain in-flight requests),
    ``service.close()`` second (seal open containers, snapshot durable
    state, remove ``.tmp`` staging files). A ``repro serve-shard``
    child killed with SIGTERM therefore leaves a storage root that
    fsck reports clean — the contract docs/RUNBOOK.md relies on.
    """
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous = signal.signal(signal.SIGTERM, _on_signal)
    try:
        while not stop.is_set():
            try:
                stop.wait(1.0)
            except KeyboardInterrupt:
                stop.set()
    finally:
        signal.signal(signal.SIGTERM, previous)
        handle.stop()
        service.close()
    return 0


def cmd_serve_keymanager(args: argparse.Namespace) -> int:
    limiter = None
    if args.rate_limit > 0:
        from repro.tedstore.ratelimit import KeyGenRateLimiter

        limiter = KeyGenRateLimiter(
            chunks_per_second=args.rate_limit,
            burst_chunks=2.0 * args.rate_limit,
        )
    front = TedKeyManager(
        secret=args.secret.encode(),
        blowup_factor=args.b,
        batch_size=args.batch_size,
        sketch_width=args.sketch_width,
    )
    state_dir = Path(args.state_dir) if args.state_dir else None
    ring_on_disk = (
        state_dir is not None and (state_dir / "ring.json").exists()
    )
    if args.shards > 1 or ring_on_disk:
        from repro.tedstore.ring import HashRing
        from repro.tedstore.sharding import ShardedKeyManager

        ring = (
            None
            if ring_on_disk
            else HashRing.build(args.shards, seed=args.ring_seed)
        )
        service = ShardedKeyManager(
            front,
            ring,
            rate_limiter=limiter,
            state_root=state_dir,
            # Only consulted when the persisted ring publishes shard
            # endpoints, i.e. the observers are serve-shard processes.
            fleet_options={
                "heartbeat_interval": args.heartbeat_interval
            },
        )
        unit = "shard processes" if service.ring.endpoints else "shards"
        shard_note = f", {len(service.ring)} KM {unit}"
    else:
        state_store = None
        if state_dir is not None:
            from repro.tedstore.km_state import KeyManagerStateStore

            state_store = KeyManagerStateStore(state_dir)
        service = KeyManagerService(
            front, rate_limiter=limiter, state_store=state_store
        )
        shard_note = ""
    handle = serve_key_manager(service, host=args.host, port=args.port)
    print(
        f"key manager listening on {handle.address} "
        f"(b={args.b}{shard_note})",
        flush=True,
    )
    if service.restore_report is not None:
        report = service.restore_report
        print(
            f"restored durable state: snapshot={report.snapshot_loaded}, "
            f"deltas replayed={report.deltas_replayed}",
            flush=True,
        )
    return _run_server(handle, service)


def cmd_serve_provider(args: argparse.Namespace) -> int:
    auth_tokens = None
    if args.auth_file:
        # One "tenant:token" per line; blank lines and '#' comments
        # are skipped.
        auth_tokens = {}
        for line in Path(args.auth_file).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tenant, _, token = line.partition(":")
            auth_tokens[tenant.strip()] = token.strip().encode()
    try:
        service = ProviderService(
            directory=args.storage,
            container_bytes=args.container_mb << 20,
            scrub_interval=args.scrub_interval or None,
            cross_user_dedup=args.cross_user_dedup,
            quota_bytes=args.quota_bytes or None,
            quota_files=args.quota_files or None,
            auth_tokens=auth_tokens,
        )
    except RuntimeError as exc:  # a sharded root, or an unfinished reshard
        print(f"serve-provider: {exc}", file=sys.stderr)
        return 2
    handle = serve_provider(service, host=args.host, port=args.port)
    mode = "shared" if args.cross_user_dedup else "partitioned"
    print(
        f"provider listening on {handle.address}, storage={args.storage}, "
        f"dedup index {mode} across tenants",
        flush=True,
    )
    return _run_server(handle, service)


def cmd_serve_shard(args: argparse.Namespace) -> int:
    """Run one shard of a fleet as its own process (DESIGN.md §17)."""
    from repro.tedstore.network import serve_shard_observer
    from repro.tedstore.reshard import refuse_pending_reshard
    from repro.tedstore.ring import load_ring

    root = Path(args.root)
    try:
        # The migration log lives at the root, not in any leaf.
        refuse_pending_reshard(root)
    except RuntimeError as exc:
        print(f"serve-shard: {exc}", file=sys.stderr)
        return 2
    ring_path = root / "ring.json"
    ring = load_ring(ring_path) if ring_path.exists() else None
    if ring is not None and args.shard not in ring.shards:
        print(
            f"shard {args.shard} not in ring {sorted(ring.shards)}",
            file=sys.stderr,
        )
        return 2
    host, port = args.host, args.port
    if port == 0 and ring is not None:
        endpoint = ring.endpoint_for(args.shard)
        if endpoint:
            host, port = parse_endpoint(endpoint)
    epoch = ring.epoch if ring is not None else 0
    shard_dir = root / "shards" / str(args.shard)

    if args.role == "km":
        from repro.tedstore.sharding import (
            ShardObserverService,
            make_shard_observer,
        )

        front = TedKeyManager(
            secret=args.secret.encode(),
            blowup_factor=args.b,
            batch_size=args.batch_size,
            sketch_width=args.sketch_width,
        )
        service = ShardObserverService(
            args.shard,
            make_shard_observer(front),
            state_dir=None if args.ephemeral else shard_dir,
            ring_epoch=epoch,
        )
        handle = serve_shard_observer(service, host=host, port=port)
        report = service.restore_report
        print(
            f"km shard {args.shard} listening on {handle.address} "
            f"(epoch {epoch}, snapshot={report.snapshot_loaded}, "
            f"deltas replayed={report.deltas_replayed})",
            flush=True,
        )
    else:
        shard_dir.mkdir(parents=True, exist_ok=True)
        service = ProviderService(
            directory=shard_dir,
            container_bytes=args.container_mb << 20,
            cross_user_dedup=args.cross_user_dedup,
        )
        handle = serve_provider(
            service,
            host=host,
            port=port,
            shard_id=args.shard,
            ring_epoch=epoch,
        )
        print(
            f"provider shard {args.shard} listening on {handle.address}, "
            f"storage={shard_dir} (epoch {epoch})",
            flush=True,
        )
    return _run_server(handle, service)


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.storage.scrub import fsck_path

    report = fsck_path(
        args.storage, repair=args.repair, deep=not args.shallow
    )
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"checked {report.containers_checked} containers, "
            f"{report.chunks_verified} chunks, "
            f"{report.index_entries_checked} index entries "
            f"in {report.seconds:.2f}s"
        )
        for container_id in report.structural_errors:
            print(f"  STRUCTURAL: container-{container_id}.bin")
        for bad in report.bad_chunks:
            state = (
                "healed" if bad.healed
                else "dropped" if bad.dropped
                else "bad"
            )
            print(
                f"  {state.upper()}: container-{bad.container_id}.bin "
                f"offset={bad.offset} length={bad.length} "
                f"fingerprint={bad.fingerprint or '<none>'}"
            )
        if report.dangling_index_entries:
            print(
                f"  DANGLING: {report.dangling_index_entries} index "
                f"entries without durable chunks"
            )
        if report.repaired:
            print(
                f"  repaired: {report.healed} healed, "
                f"{report.dropped} dropped"
            )
        print("clean" if report.clean else "DAMAGED")
    return 0 if report.clean else 1


def cmd_reshard(args: argparse.Namespace) -> int:
    from repro.tedstore.reshard import ReshardError, run_reshard

    try:
        summaries = run_reshard(
            args.shards,
            storage=args.storage,
            km_state=args.km_state,
            seed=args.ring_seed if args.ring_seed >= 0 else None,
            vnodes=args.vnodes if args.vnodes > 0 else None,
            container_bytes=args.container_mb << 20,
        )
    except ReshardError as exc:
        print(f"reshard failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        for summary in summaries:
            fields = ", ".join(
                f"{key}={value}" for key, value in sorted(summary.items())
            )
            print(fields)
    return 0


def cmd_upload(args: argparse.Namespace) -> int:
    client = _make_client(args)
    data = Path(args.file).read_bytes()
    start = time.perf_counter()
    result = client.upload(args.name or Path(args.file).name, data)
    elapsed = time.perf_counter() - start
    cache_note = (
        f", {result.cache_hits} resolved client-side"
        if result.cache_hits
        else ""
    )
    print(
        f"uploaded {result.logical_bytes} bytes as {result.chunk_count} "
        f"chunks ({result.stored_chunks} stored, "
        f"{result.duplicate_chunks} deduplicated{cache_note}) "
        f"in {elapsed:.2f}s"
    )
    return 0


def cmd_download(args: argparse.Namespace) -> int:
    client = _make_client(args)
    start = time.perf_counter()
    data = client.download(args.name)
    elapsed = time.perf_counter() - start
    Path(args.out).write_bytes(data)
    print(f"downloaded {len(data)} bytes to {args.out} in {elapsed:.2f}s")
    return 0


def cmd_generate_trace(args: argparse.Namespace) -> int:
    if args.flavor == "ms":
        dataset = generate_ms_like(
            machines=args.snapshots, scale=args.scale, seed=args.seed
        )
    else:
        dataset = generate_fsl_like(
            users=1,
            snapshots_per_user=args.snapshots,
            scale=args.scale,
            seed=args.seed,
        )
    paths = write_dataset(args.out, dataset)
    for path, snapshot in zip(paths, dataset):
        print(
            f"{path}: {len(snapshot)} chunks, "
            f"{snapshot.unique_chunks} unique, "
            f"{snapshot.total_bytes / (1 << 20):.1f} MiB logical"
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    snapshot = read_snapshot(args.trace)
    print(
        f"{args.trace}: {len(snapshot)} chunks, {snapshot.unique_chunks} "
        f"unique, dedup ratio {snapshot.dedup_ratio:.2f}x"
    )
    schemes = [MLEScheme(), SKEScheme(), MinHashScheme()]
    schemes.extend(
        make_fted(b, sketch_width=args.sketch_width) for b in args.b
    )
    print(f"{'scheme':<14} {'KLD':>8} {'blowup':>8}")
    for scheme in schemes:
        output = scheme.process(snapshot.records)
        print(f"{scheme.name:<14} {output.kld():>8.4f} {output.blowup():>8.4f}")
    return 0


def _print_stats(sections: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(sections, indent=2, sort_keys=True))
        return
    if fmt == "prom":
        # Remote stats arrive as flat (name, value) pairs, not a registry;
        # render them as untyped Prometheus samples with an entity label.
        for entity, pairs in sorted(sections.items()):
            for name, value in sorted(pairs.items()):
                clean = "".join(
                    c if c.isalnum() or c == "_" else "_" for c in name
                )
                print(f'ted_remote_{clean}{{entity="{entity}"}} {value}')
        return
    for entity, pairs in sorted(sections.items()):
        print(f"[{entity}]")
        width = max((len(n) for n in pairs), default=0)
        for name, value in sorted(pairs.items()):
            print(f"  {name:<{width}}  {value}")


def cmd_stats(args: argparse.Namespace) -> int:
    sections = {}
    if args.km:
        km = RemoteKeyManager(args.km)
        try:
            sections["key_manager"] = dict(km.stats())
        finally:
            km.close()
    if args.provider:
        provider = RemoteProvider(args.provider)
        try:
            sections["provider"] = dict(provider.stats())
        finally:
            provider.close()
    if not sections:
        print("nothing to query: pass --km and/or --provider", file=sys.stderr)
        return 2
    _print_stats(sections, args.format)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import random

    from repro.obs import export, tracing
    from repro.tedstore.inprocess import LocalKeyManager, LocalProvider

    previous = tracing.get_tracer()
    recorder = tracing.SpanRecorder()
    tracer = tracing.set_tracer(tracing.Tracer(recorder=recorder))
    try:
        client = TedStoreClient(
            LocalKeyManager(KeyManagerService()),
            LocalProvider(ProviderService(in_memory=True)),
            profile=get_profile(args.profile),
        )
        rng = random.Random(args.seed)
        data = rng.randbytes(args.size_kb << 10)
        with tracer.span("demo.roundtrip"):
            client.upload("trace-demo", data)
            restored = client.download("trace-demo")
    finally:
        tracing.set_tracer(previous)
    if restored != data:
        print("round trip FAILED: downloaded bytes differ", file=sys.stderr)
        return 1
    print(export.format_recorder(recorder))
    print(
        f"\nrecorder: {recorder.used}/{recorder.capacity} spans held, "
        f"{recorder.dropped} dropped"
    )
    print()
    print(export.prometheus_text())
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen.report import LoadReport, write_bench
    from repro.loadgen.runner import (
        LoadRunner,
        TcpDeployment,
    )
    from repro.loadgen.workload import WorkloadProfile
    from repro.obs.flight import FlightRecorder

    if args.profile_file:
        try:
            profile = WorkloadProfile.from_toml(args.profile_file)
        except (OSError, ValueError) as exc:
            print(f"bad profile: {exc}", file=sys.stderr)
            return 2
    else:
        profile = WorkloadProfile()
    overrides = {}
    for attr, flag in (
        ("mode", "mode"),
        ("clients", "clients"),
        ("arrival_rate", "rate"),
        ("duration_seconds", "duration"),
        ("seed", "seed"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[attr] = value
    if overrides:
        from dataclasses import replace as _replace

        profile = _replace(profile, **overrides)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)

    deployment = None
    if args.km or args.provider:
        if not (args.km and args.provider):
            print(
                "TCP mode needs both --km and --provider", file=sys.stderr
            )
            return 2
        auth_token = b""
        if args.auth_token:
            auth_token = Path(args.auth_token).read_bytes().strip()
        deployment = TcpDeployment(
            args.km, args.provider, auth_token
        )

    flight = None
    if args.flight:
        flight = FlightRecorder(
            args.flight, max_bytes=args.flight_mb << 20
        )
    runner = LoadRunner(profile, deployment=deployment, flight=flight)
    try:
        totals = runner.run()
    except KeyboardInterrupt:
        runner.stop()
        totals = runner.totals
    finally:
        if flight is not None:
            flight.close()
        if deployment is not None:
            deployment.close()
    report = LoadReport.collect(profile, totals, runner.tracker)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    if args.bench_out:
        path = write_bench([report], args.bench_out)
        print(f"wrote {path}", file=sys.stderr)
    return 1 if report.breached else 0


def _top_render_window(ops: list, now: float, window: float) -> List[str]:
    """Render one refresh frame from recent op events."""
    recent = [e for e in ops if now - e["ts"] <= window]
    lines = [
        f"-- last {window:.0f}s: {len(recent)} ops "
        f"({sum(1 for e in recent if not e['ok'])} errors) --",
        f"{'op':<10} {'qps':>7} {'p50ms':>8} {'p99ms':>8} {'err%':>6}",
    ]
    by_op: dict = {}
    for event in recent:
        by_op.setdefault(event["op"], []).append(event)
    for op, events in sorted(by_op.items()):
        latencies = sorted(e["seconds"] for e in events if e["ok"])
        errors = sum(1 for e in events if not e["ok"])
        p50 = latencies[len(latencies) // 2] * 1000 if latencies else 0.0
        p99 = (
            latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
            * 1000
            if latencies
            else 0.0
        )
        lines.append(
            f"{op:<10} {len(events) / window:>7.1f} {p50:>8.1f} "
            f"{p99:>8.1f} {errors / len(events):>6.1%}"
        )
    by_tenant: dict = {}
    for event in recent:
        by_tenant.setdefault(event["tenant"], []).append(event)
    if by_tenant:
        lines.append(f"{'tenant':<10} {'qps':>7} {'err%':>6}")
        for tenant, events in sorted(by_tenant.items()):
            errors = sum(1 for e in events if not e["ok"])
            lines.append(
                f"{tenant:<10} {len(events) / window:>7.1f} "
                f"{errors / len(events):>6.1%}"
            )
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.flight import iter_flight

    path = args.replay or args.follow
    if not path:
        print("pass --replay FILE or --follow FILE", file=sys.stderr)
        return 2

    if args.replay:
        try:
            events = list(iter_flight(path))
        except (OSError, ValueError) as exc:
            print(f"cannot read flight file: {exc}", file=sys.stderr)
            return 2
        ops = [e for e in events if e["kind"] == "op"]
        metas = [e for e in events if e["kind"] == "meta"]
        if metas:
            first = metas[0]
            print(
                f"run: profile={first.get('profile', '?')} "
                f"mode={first.get('mode', '?')} "
                f"seed={first.get('seed', '?')}"
            )
        if not ops:
            print("(no op events recorded)")
            return 0
        t0 = ops[0]["ts"]
        interval = args.interval
        buckets: dict = {}
        for event in ops:
            buckets.setdefault(int((event["ts"] - t0) / interval), []).append(
                event
            )
        print(
            f"{'t':>6} {'op':<10} {'ops':>6} {'qps':>7} {'p50ms':>8} "
            f"{'p99ms':>8} {'err%':>6}"
        )
        for index in sorted(buckets):
            by_op: dict = {}
            for event in buckets[index]:
                by_op.setdefault(event["op"], []).append(event)
            for op, events_ in sorted(by_op.items()):
                latencies = sorted(
                    e["seconds"] for e in events_ if e["ok"]
                )
                errors = sum(1 for e in events_ if not e["ok"])
                p50 = (
                    latencies[len(latencies) // 2] * 1000
                    if latencies
                    else 0.0
                )
                p99 = (
                    latencies[
                        min(len(latencies) - 1, int(len(latencies) * 0.99))
                    ]
                    * 1000
                    if latencies
                    else 0.0
                )
                print(
                    f"{index * interval:>5.0f}s {op:<10} "
                    f"{len(events_):>6} {len(events_) / interval:>7.1f} "
                    f"{p50:>8.1f} {p99:>8.1f} "
                    f"{errors / len(events_):>6.1%}"
                )
        total_errors = sum(1 for e in ops if not e["ok"])
        span = ops[-1]["ts"] - t0
        print(
            f"\n{len(ops)} ops over {span:.1f}s "
            f"({total_errors} errors)"
        )
        return 0

    # --follow: poll the active file, rendering a sliding-window frame
    # per refresh until no new events arrive (or forever with --wait).
    iterations = 0
    last_count = -1
    idle_rounds = 0
    while True:
        try:
            ops = [e for e in iter_flight(path) if e["kind"] == "op"]
        except FileNotFoundError:
            ops = []
        except ValueError as exc:
            print(f"cannot read flight file: {exc}", file=sys.stderr)
            return 2
        if ops:
            now = ops[-1]["ts"]
            for line in _top_render_window(ops, now, args.window):
                print(line)
            print()
        idle_rounds = idle_rounds + 1 if len(ops) == last_count else 0
        last_count = len(ops)
        iterations += 1
        if args.iterations and iterations >= args.iterations:
            return 0
        if not args.wait and idle_rounds >= 3 and ops:
            return 0  # the writer has gone quiet; the run is over
        try:
            time.sleep(args.refresh)
        except KeyboardInterrupt:
            return 0


def cmd_tune(args: argparse.Namespace) -> int:
    snapshot = read_snapshot(args.trace)
    solution = solve(snapshot.frequencies(), args.b)
    print(
        f"b={args.b}: t={solution.t}, m={solution.m}, "
        f"n*={solution.n_star}, predicted KLD={solution.predicted_kld:.4f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TED/TEDStore command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_client(p):
        p.add_argument("--km", default="127.0.0.1:9401", type=parse_endpoint)
        p.add_argument(
            "--provider", default="127.0.0.1:9402", type=parse_endpoint
        )
        p.add_argument("--master-key", default=None,
                       help="file hashed into the 32-byte master key")
        p.add_argument("--profile", default="shactr",
                       choices=["secure", "fast", "shactr"])
        p.add_argument("--sketch-width", type=int, default=2**21)
        p.add_argument("--batch-size", type=int, default=48_000)
        p.add_argument(
            "--workers", type=int, default=1,
            help="encrypt/decrypt worker threads; >1 overlaps keygen, "
                 "crypto, and the wire on stage threads (DESIGN.md §10)",
        )
        p.add_argument(
            "--pipeline-depth", type=int, default=4,
            help="bounded-queue depth between threaded stages",
        )
        p.add_argument(
            "--crypto-workers", type=int, default=0, metavar="N",
            help="encrypt in a pool of N OS processes instead of the "
                 "worker threads (sidesteps the GIL for CPU-bound "
                 "profiles; stored bytes stay identical, DESIGN.md §16)",
        )
        p.add_argument(
            "--fp-cache", type=int, default=0, metavar="ENTRIES",
            help="client fingerprint-cache capacity; >0 enables "
                 "client-side duplicate short-circuiting",
        )
        p.add_argument(
            "--tenant", default="default",
            help="tenant namespace to bind the provider connection to "
                 "(DESIGN.md §13); 'default' skips the HELLO handshake",
        )
        p.add_argument(
            "--auth-token", default=None, metavar="FILE",
            help="file whose (stripped) contents are the shared secret "
                 "presented to the provider for --tenant",
        )
        p.add_argument(
            "--ring-file", default=None, metavar="FILE",
            help="fleet ring.json with per-shard endpoints: route "
                 "chunk/recipe traffic to the serve-shard provider "
                 "processes it names, one circuit breaker per shard "
                 "(DESIGN.md §17); overrides --provider",
        )
        p.add_argument(
            "--heartbeat-interval", type=float, default=0.0,
            help="fleet-mode background health-probe cadence in "
                 "seconds (0 disables; breakers still learn from "
                 "call failures)",
        )

    p = sub.add_parser("serve-keymanager", help="run a TED key manager")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9401)
    p.add_argument("--secret", default="tedstore-secret")
    p.add_argument("--b", type=float, default=1.05)
    p.add_argument("--batch-size", type=int, default=48_000)
    p.add_argument("--sketch-width", type=int, default=2**21)
    p.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-client key-generation budget in chunks/s (0 disables)",
    )
    p.add_argument(
        "--state-dir", default=None,
        help="durable sketch-state directory (snapshot + delta log); "
             "restores the frequency state after a crash (DESIGN.md §12)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="shard the sketch across N per-range key managers behind "
             "one wire endpoint (DESIGN.md §15); an existing ring.json "
             "in --state-dir takes precedence",
    )
    p.add_argument(
        "--ring-seed", type=int, default=0,
        help="seed for the consistent-hash ring (ignored once a "
             "ring.json exists in --state-dir)",
    )
    p.add_argument(
        "--heartbeat-interval", type=float, default=0.0,
        help="background health-probe cadence toward serve-shard "
             "observer processes, in seconds; only used when the "
             "persisted ring publishes endpoints (0 disables)",
    )
    p.set_defaults(func=cmd_serve_keymanager)

    p = sub.add_parser(
        "serve-shard",
        help="run one shard of a fleet as its own process "
             "(DESIGN.md §17)",
    )
    p.add_argument(
        "--role", choices=["km", "provider"], required=True,
        help="km: a sketch-observer over <root>/shards/<K>; provider: "
             "a storage leaf over the same layout",
    )
    p.add_argument("--shard", type=int, required=True, metavar="K",
                   help="this process's shard id in the ring")
    p.add_argument(
        "--root", required=True,
        help="deployment root holding ring.json and shards/<K>/ "
             "(the KM state dir or the provider storage root)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="listen port; 0 takes this shard's endpoint from "
             "ring.json when one is published, else an ephemeral port",
    )
    p.add_argument("--secret", default="tedstore-secret",
                   help="km role: must match the front's --secret")
    p.add_argument("--b", type=float, default=1.05,
                   help="km role: must match the front's --b")
    p.add_argument("--batch-size", type=int, default=48_000,
                   help="km role: must match the front's --batch-size")
    p.add_argument("--sketch-width", type=int, default=2**21,
                   help="km role: must match the front's --sketch-width")
    p.add_argument("--container-mb", type=int, default=8,
                   help="provider role: container size")
    p.add_argument(
        "--cross-user-dedup",
        action=argparse.BooleanOptionalAction, default=True,
        help="provider role: share the dedup index across tenants",
    )
    p.add_argument(
        "--ephemeral", action="store_true",
        help="km role: keep the sketch in memory only (no durable "
             "store, no crash recovery)",
    )
    p.set_defaults(func=cmd_serve_shard)

    p = sub.add_parser("serve-provider", help="run a storage provider")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9402)
    p.add_argument("--storage", required=True)
    p.add_argument("--container-mb", type=int, default=8)
    p.add_argument(
        "--scrub-interval", type=float, default=0.0, metavar="SECONDS",
        help="background scrub cadence: verify every chunk checksum this "
             "often (0 disables)",
    )
    p.add_argument(
        "--cross-user-dedup",
        action=argparse.BooleanOptionalAction, default=True,
        help="share the fingerprint index and containers across tenants "
             "(recipes and keys stay per-tenant); --no-cross-user-dedup "
             "partitions the dedup index per tenant so one tenant's "
             "uploads never dedup against another's (DESIGN.md §13)",
    )
    p.add_argument(
        "--quota-bytes", type=int, default=0,
        help="per-tenant logical-byte quota; uploads past it are "
             "rejected before any storage mutation (0 = unlimited)",
    )
    p.add_argument(
        "--quota-files", type=int, default=0,
        help="per-tenant file-count quota (0 = unlimited)",
    )
    p.add_argument(
        "--auth-file", default=None, metavar="FILE",
        help="tenant:token lines; tenants listed here must present the "
             "token in the HELLO handshake",
    )
    p.set_defaults(func=cmd_serve_provider)

    p = sub.add_parser(
        "reshard",
        help="add/remove shards with state migration (provider storage "
             "root and/or KM state dir)",
    )
    p.add_argument("--shards", type=int, required=True,
                   help="target shard count")
    p.add_argument("--storage", default=None,
                   help="provider storage root to migrate: sharded, "
                        "unsharded, or an in-process sharded store to "
                        "convert (even at the same --shards)")
    p.add_argument("--km-state", default=None,
                   help="key-manager state dir to migrate")
    p.add_argument("--ring-seed", type=int, default=-1,
                   help="ring seed for a first-time shard split "
                        "(ignored when a ring.json already exists)")
    p.add_argument("--vnodes", type=int, default=0,
                   help="virtual nodes per shard for a first-time split "
                        "(0 = default)")
    p.add_argument("--container-mb", type=int, default=8)
    p.add_argument("--json", action="store_true",
                   help="machine-readable migration summary")
    p.set_defaults(func=cmd_reshard)

    p = sub.add_parser(
        "fsck", help="verify (and optionally repair) a storage root"
    )
    p.add_argument("--storage", required=True,
                   help="provider storage root to check")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--repair", action="store_true",
                   help="quarantine corrupt containers, heal bad chunks "
                        "from redundant copies, drop unhealable entries")
    p.add_argument("--shallow", action="store_true",
                   help="skip per-chunk checksum verification")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("upload", help="upload a file")
    common_client(p)
    p.add_argument("file")
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_upload)

    p = sub.add_parser("download", help="download a file")
    common_client(p)
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_download)

    p = sub.add_parser("generate-trace", help="write synthetic snapshots")
    p.add_argument("--flavor", choices=["fsl", "ms"], default="fsl")
    p.add_argument("--snapshots", type=int, default=3)
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_trace)

    p = sub.add_parser("analyze", help="trade-off analysis on a trace")
    p.add_argument("trace")
    p.add_argument("--b", type=float, nargs="+", default=[1.05, 1.1, 1.2])
    p.add_argument("--sketch-width", type=int, default=2**16)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tune", help="derive t for a trace and blowup factor")
    p.add_argument("trace")
    p.add_argument("--b", type=float, default=1.05)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("stats", help="query running servers for metrics")
    p.add_argument("--km", default=None, type=parse_endpoint,
                   help="key manager address (host:port)")
    p.add_argument("--provider", default=None, type=parse_endpoint,
                   help="provider address (host:port)")
    p.add_argument("--format", choices=["table", "json", "prom"],
                   default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace", help="in-process round-trip demo with span tree"
    )
    p.add_argument("--size-kb", type=int, default=256)
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument("--profile", default="shactr",
                   choices=["secure", "fast", "shactr"])
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "loadgen",
        help="run a multi-tenant load profile; exit 1 on SLO breach",
    )
    p.add_argument(
        "--profile", dest="profile_file", default=None, metavar="TOML",
        help="workload profile file (examples/load_smoke.toml); "
             "omit for built-in defaults",
    )
    p.add_argument("--mode", choices=["closed", "open"], default=None,
                   help="override the profile's arrival mode")
    p.add_argument("--clients", type=int, default=None,
                   help="override closed-loop client count")
    p.add_argument("--rate", type=float, default=None,
                   help="override open-loop arrival rate (ops/s)")
    p.add_argument("--duration", type=float, default=None,
                   help="override run duration in seconds")
    p.add_argument("--seed", type=int, default=None,
                   help="override the profile seed")
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="scale clients/rate/inflight/duration together "
             "(CI smoke uses 0.15)",
    )
    p.add_argument("--km", default=None, type=parse_endpoint,
                   help="key manager address; with --provider, drive a "
                        "TCP deployment instead of in-process services")
    p.add_argument("--provider", default=None, type=parse_endpoint,
                   help="provider address (host:port)")
    p.add_argument("--auth-token", default=None, metavar="FILE",
                   help="file with the shared tenant auth secret")
    p.add_argument("--flight", default=None, metavar="FILE",
                   help="write a bounded JSONL flight record here "
                        "(replay with `repro top --replay`)")
    p.add_argument("--flight-mb", type=int, default=8,
                   help="flight-record size budget in MiB")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.add_argument("--bench-out", default=None, metavar="FILE",
                   help="also merge the report into this BENCH_load.json")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "top", help="per-op qps/p99/error view of a load run"
    )
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="reconstruct the full per-op latency timeline "
                        "from a finished flight record")
    p.add_argument("--follow", default=None, metavar="FILE",
                   help="poll a flight record being written, printing a "
                        "sliding-window frame per refresh")
    p.add_argument("--interval", type=float, default=1.0,
                   help="replay timeline bucket width in seconds")
    p.add_argument("--window", type=float, default=5.0,
                   help="follow-mode sliding window in seconds")
    p.add_argument("--refresh", type=float, default=1.0,
                   help="follow-mode poll interval in seconds")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop follow mode after N frames (0 = until the "
                        "writer goes quiet)")
    p.add_argument("--wait", action="store_true",
                   help="follow forever even when no events arrive")
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
