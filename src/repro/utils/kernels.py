"""Shared instruments for the batched hot-path kernels.

The data-path inner loops (AES rounds, SHA-CTR keystream, gear/Rabin
boundary scans, Count-Min batch updates — DESIGN.md §16) are table-driven
and batched (``memoryview``/``bytearray``/numpy) so interpreter overhead
is paid per batch instead of per byte. The ``ted_kernel_*`` instruments
record batch sizes, bytes, and per-call latency for the cipher and scan
kernels, labelled by kernel name, so the throughput of each kernel is
visible in ``repro stats`` and the generated docs/METRICS.md. The
Count-Min batch update records once, on its own
``ted_sketch_updates_total`` and ``ted_sketch_update_seconds``.
"""

from __future__ import annotations

from repro.obs import metrics as obs_metrics

_REGISTRY = obs_metrics.get_registry()

#: Items (blocks, chunks, hash vectors, scan positions) per kernel call.
KERNEL_BATCH_SIZE = _REGISTRY.histogram(
    "ted_kernel_batch_size",
    "Items processed per batched-kernel invocation",
    labelnames=("kernel",),
    buckets=(1, 8, 64, 512, 4096, 65536, 1 << 24),
)
KERNEL_SECONDS = _REGISTRY.histogram(
    "ted_kernel_seconds",
    "Wall-clock latency of one batched-kernel invocation",
    labelnames=("kernel",),
)
KERNEL_BYTES = _REGISTRY.counter(
    "ted_kernel_bytes_total",
    "Bytes run through each batched kernel",
    labelnames=("kernel",),
)


def observe(kernel: str, items: int, nbytes: int, seconds: float) -> None:
    """Record one batched-kernel invocation on the shared instruments."""
    KERNEL_BATCH_SIZE.labels(kernel=kernel).observe(items)
    KERNEL_SECONDS.labels(kernel=kernel).observe(seconds)
    if nbytes:
        KERNEL_BYTES.labels(kernel=kernel).inc(nbytes)


__all__ = [
    "observe",
    "KERNEL_BATCH_SIZE",
    "KERNEL_SECONDS",
    "KERNEL_BYTES",
]
