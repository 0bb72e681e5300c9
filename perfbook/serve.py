"""One TEDStore server process for the benchmark's TCP and fleet shapes.

Builds a service through its public constructor and serves it with the
same ``serve_*`` function the CLI uses; unlike the CLI it seeds the key
manager's RNG, so a run is reproducible from ``--seed``.

    python perfbook/serve.py --role provider --dir DIR --dump FILE ...

Prints ``READY <port>`` once listening (the port comes from bind-to-0).
SIGUSR1 (provider only) checkpoints the service with ``flush()`` and
writes the dump file;
SIGTERM drains, closes the service as the CLI does, writes the dump file
and exits 0. The dump holds the recorded spans (``--trace 1``) and the
service's public counters.

The ``instrument_*`` functions are also what the in-process shape uses to
put the same spans on its service objects.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import signal
import sys
import threading
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.ted import TedKeyManager  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.storage.dedup import DedupEngine  # noqa: E402
from repro.tedstore.fleet import RemoteKmShardPool  # noqa: E402
from repro.tedstore.keymanager import KeyManagerService  # noqa: E402
from repro.tedstore.km_state import KeyManagerStateStore  # noqa: E402
from repro.tedstore.network import (  # noqa: E402
    serve_key_manager,
    serve_provider,
    serve_shard_observer,
)
from repro.tedstore.provider import ProviderService  # noqa: E402
from repro.tedstore.ring import HashRing  # noqa: E402
from repro.tedstore.sharding import (  # noqa: E402
    ShardedKeyManager,
    ShardObserverService,
    make_shard_observer,
)

from spans import Recorder, TimedProxy, wrap_method  # noqa: E402

# Key-manager configuration shared by every shape (README, "Configuration").
KM_SECRET = b"perfbook-secret"
KM_BLOWUP = 1.05
KM_BATCH = 8192
SKETCH_WIDTH = 2**21


def make_key_manager(seed: int) -> TedKeyManager:
    """The FTED key manager every shape runs, seeded for reproducibility."""
    return TedKeyManager(
        secret=KM_SECRET,
        blowup_factor=KM_BLOWUP,
        batch_size=KM_BATCH,
        sketch_width=SKETCH_WIDTH,
        rng=random.Random(seed),
    )


def make_provider(
    directory, container_bytes: int, memtable_bytes: int
) -> ProviderService:
    """An on-disk provider; ``memtable_bytes`` 0 keeps the index default."""
    directory = Path(directory)
    engine = None
    if memtable_bytes:
        engine = DedupEngine(
            directory,
            container_bytes=container_bytes,
            kvstore_options={"memtable_bytes": memtable_bytes},
        )
    return ProviderService(
        directory=directory, container_bytes=container_bytes, engine=engine
    )


# -- spans on built service objects ---------------------------------------------


def instrument_provider(service: ProviderService, recorder: Recorder) -> None:
    """Spans at the provider handlers and the storage calls beneath them."""
    for method, name in (
        ("handle_put_chunks", "provider.put"),
        ("handle_get_chunks", "provider.get"),
        ("handle_put_recipes", "provider.recipe_put"),
        ("handle_get_recipes", "provider.recipe_get"),
    ):
        wrap_method(service, method, recorder, name)
    engine = service.engine
    wrap_method(engine, "load_many", recorder, "storage.load_many")
    for method, name in (
        ("get", "storage.index_get"),
        ("put", "storage.index_put"),
        ("flush", "storage.index_flush"),
        ("compact", "storage.index_compact"),
    ):
        wrap_method(engine.index, method, recorder, name)
    for method, name in (
        ("append", "storage.container_append"),
        ("seal", "storage.container_seal"),
        ("read", "storage.container_read"),
    ):
        wrap_method(engine.containers, method, recorder, name)


def instrument_key_manager(service, recorder: Recorder) -> None:
    """Spans at the key-manager handlers, seed generation and state log."""
    wrap_method(service, "handle_keygen_batched", recorder, "km.handle_batched")
    wrap_method(service, "handle_keygen", recorder, "km.handle")
    wrap_method(service.key_manager, "generate_seeds", recorder, "km.seeds")
    state_store = getattr(service, "state_store", None)
    if state_store is not None:
        wrap_method(state_store, "log_batch", recorder, "km.statelog")


def instrument_observer(
    service: ShardObserverService, recorder: Recorder
) -> None:
    """Spans at a sketch-observer shard; its self time is the state log."""
    wrap_method(service, "handle_observe", recorder, "km.observe_handle")
    wrap_method(service.key_manager, "estimate_batch", recorder, "km.estimate")


# -- counters -------------------------------------------------------------------

_REGISTRY_KEYS = (
    "ted_wal_fsyncs_total",
    "ted_wal_fsync_seconds_sum",
    "ted_keymanager_snapshots_total",
)


def registry_counters() -> Dict[str, float]:
    """The few process-wide instruments the per-layer metrics read."""
    snapshot = obs_metrics.get_registry().snapshot()
    return {key: snapshot.get(key, 0) for key in _REGISTRY_KEYS}


def provider_counters(service: ProviderService) -> Dict[str, object]:
    engine = service.engine
    return {
        "service": dict(service.stats()),
        "index": dict(engine.index.stats),
        "containers": dict(engine.containers.stats),
        "registry": registry_counters(),
    }


def observer_counters() -> Dict[str, object]:
    return {"registry": registry_counters()}


def key_manager_counters(service) -> Dict[str, object]:
    stats = service.key_manager.stats
    return {
        "service": dict(service.stats()),
        "t_history": list(stats.t_history),
        "requests": stats.requests,
        "registry": registry_counters(),
    }


# -- the process ------------------------------------------------------------------


def _write_dump(path: Path, payload: Dict[str, object]) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--role",
        required=True,
        choices=["km", "km-front", "km-shard", "provider"],
    )
    parser.add_argument("--dir", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shard", type=int, default=-1)
    parser.add_argument("--ring", help="km-front: ring JSON with endpoints")
    parser.add_argument("--container-bytes", type=int, default=8 << 20)
    parser.add_argument("--memtable-bytes", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    recorder: Optional[Recorder] = Recorder() if args.trace else None
    if args.role == "provider":
        service = make_provider(
            args.dir, args.container_bytes, args.memtable_bytes
        )
        if recorder:
            instrument_provider(service, recorder)
        handle = serve_provider(service, shard_id=args.shard)
        counters = functools.partial(provider_counters, service)
    elif args.role == "km":
        service = KeyManagerService(
            make_key_manager(args.seed),
            state_store=KeyManagerStateStore(args.dir),
        )
        if recorder:
            instrument_key_manager(service, recorder)
        handle = serve_key_manager(service)
        counters = functools.partial(key_manager_counters, service)
    elif args.role == "km-front":
        ring = HashRing.from_json(Path(args.ring).read_text())
        pool = RemoteKmShardPool(ring)
        if recorder:
            pool = TimedProxy(pool, recorder, {"observe": "km.observe_fanout"})
        service = ShardedKeyManager(
            make_key_manager(args.seed),
            ring,
            state_root=args.dir,
            shard_pool=pool,
        )
        if recorder:
            instrument_key_manager(service, recorder)
        handle = serve_key_manager(service)
        counters = functools.partial(key_manager_counters, service)
    else:
        service = ShardObserverService(
            args.shard,
            make_shard_observer(make_key_manager(args.seed)),
            state_dir=args.dir,
        )
        if recorder:
            instrument_observer(service, recorder)
        handle = serve_shard_observer(service)
        counters = observer_counters

    dump_path = Path(args.dump)

    def dump() -> None:
        _write_dump(
            dump_path,
            {
                "role": args.role,
                "shard": args.shard,
                "spans": recorder.spans if recorder else [],
                "counters": counters(),
            },
        )

    # Signal handlers only note what arrived; the main thread acts on it.
    arrived = []
    wake = threading.Event()

    def on_signal(signum, _frame) -> None:
        arrived.append(signum)
        wake.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGUSR1, on_signal)
    print(f"READY {handle.address[1]}", flush=True)
    try:
        while signal.SIGTERM not in arrived:
            wake.wait()
            wake.clear()
            if signal.SIGUSR1 in arrived:
                arrived.remove(signal.SIGUSR1)
                service.flush()
                dump()
    finally:
        handle.stop()
        service.close()
        dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
