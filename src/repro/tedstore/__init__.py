"""TEDStore: the networked encrypted-deduplication prototype (paper §4)."""

from repro.tedstore.client import TedStoreClient, UploadResult
from repro.tedstore.faults import (
    FaultPlan,
    FaultyKeyManager,
    FaultyProvider,
    InjectedFault,
)
from repro.tedstore.inprocess import LocalKeyManager, LocalProvider
from repro.tedstore.keymanager import KeyManagerService
from repro.tedstore.network import (
    RemoteKeyManager,
    RemoteProvider,
    ServerBusy,
    ServerHandle,
    serve_key_manager,
    serve_provider,
)
from repro.tedstore.provider import ProviderService
from repro.tedstore.ratelimit import KeyGenRateLimiter, RateLimitExceeded
from repro.tedstore.reshard import (
    ReshardError,
    reshard_km,
    reshard_provider,
    run_reshard,
)
from repro.tedstore.retry import (
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
    retry_call,
)
from repro.tedstore.ring import HashRing, load_ring, store_ring
from repro.tedstore.sharding import ShardedKeyManager

__all__ = [
    "KeyGenRateLimiter",
    "RateLimitExceeded",
    "TedStoreClient",
    "UploadResult",
    "LocalKeyManager",
    "LocalProvider",
    "KeyManagerService",
    "RemoteKeyManager",
    "RemoteProvider",
    "ServerBusy",
    "ServerHandle",
    "serve_key_manager",
    "serve_provider",
    "ProviderService",
    "FaultPlan",
    "FaultyKeyManager",
    "FaultyProvider",
    "InjectedFault",
    "DeadlineExceeded",
    "RetriesExhausted",
    "RetryPolicy",
    "retry_call",
    "HashRing",
    "load_ring",
    "store_ring",
    "ShardedKeyManager",
    "ReshardError",
    "reshard_km",
    "reshard_provider",
    "run_reshard",
]
