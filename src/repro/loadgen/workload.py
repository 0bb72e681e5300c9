"""Declarative load-generator workload profiles.

A :class:`WorkloadProfile` describes a fleet-scale run the way the
paper's evaluation describes a trace: arrival process, concurrency,
file-size and dedup-locality distributions, upload/restore mix,
per-tenant skew, seeded fault mix, and the SLOs the run is judged
against. Profiles load from TOML (``repro loadgen --profile``) or plain
dicts, and every stochastic choice downstream derives from the single
``seed``, so a profile + seed names a reproducible run.

Two arrival modes (the classic load-testing dichotomy):

* **closed** — ``clients`` workers each issue the next operation as soon
  as the previous one finishes (optionally separated by
  ``think_seconds``). Throughput is an *output*; this is the FSL-style
  "N backup agents" shape.
* **open** — operations arrive on a Poisson process at ``arrival_rate``
  ops/s regardless of completions, dispatched to at most
  ``max_inflight`` workers through a bounded queue. Arrivals that find
  the queue full are *shed* and counted as errors — the open loop never
  blocks the arrival clock, so overload is measured instead of hidden
  (no coordinated omission).

Dedup locality follows the PM-Dedup-style edge/partial mixes
(PAPERS.md): payloads are composed from fixed-size units drawn from a
per-tenant pool, a cross-tenant shared pool, or fresh randomness —
``dup_chunk_prob``/``shared_prob`` set the partial-dedup level, and
``dup_file_prob`` re-uploads a whole earlier payload (the full-dedup
edge case).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Mapping, Tuple

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI
    tomllib = None

from repro.obs.slo import SLO
from repro.tedstore.faults import FaultPlan

MODES = ("closed", "open")


@dataclass(frozen=True)
class FileShape:
    """File-size and dedup-locality distribution for generated payloads."""

    min_kb: int = 8
    max_kb: int = 64
    unit_kb: int = 8
    dup_file_prob: float = 0.2
    dup_chunk_prob: float = 0.3
    shared_prob: float = 0.5
    pool_units: int = 256
    pool_files: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.min_kb <= self.max_kb:
            raise ValueError("need 0 < min_kb <= max_kb")
        if self.unit_kb < 1 or self.unit_kb > self.min_kb:
            raise ValueError("need 1 <= unit_kb <= min_kb")
        for name in ("dup_file_prob", "dup_chunk_prob", "shared_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.pool_units < 1 or self.pool_files < 1:
            raise ValueError("pools must hold at least one entry")


@dataclass(frozen=True)
class OpMix:
    """Upload/restore split; weights normalize to 1."""

    upload: float = 0.7
    restore: float = 0.3

    def __post_init__(self) -> None:
        if self.upload < 0 or self.restore < 0:
            raise ValueError("mix weights cannot be negative")
        if self.upload + self.restore <= 0:
            raise ValueError("mix weights cannot all be zero")

    @property
    def upload_fraction(self) -> float:
        return self.upload / (self.upload + self.restore)


@dataclass(frozen=True)
class TenantShape:
    """How many tenants and how skewed the traffic across them is."""

    count: int = 2
    skew: float = 1.0  # Zipf-ish exponent: 0 = uniform
    cross_user_dedup: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one tenant")
        if self.skew < 0:
            raise ValueError("skew cannot be negative")

    def weights(self) -> Tuple[float, ...]:
        """Per-tenant selection weights (tenant 0 is the hottest)."""
        return tuple(
            1.0 / (rank + 1) ** self.skew for rank in range(self.count)
        )


@dataclass(frozen=True)
class DeploymentShape:
    """Server-side topology the run is generated against.

    ``shards > 1`` builds the in-process deployment sharded — N
    provider leaves behind the fleet client and a
    :class:`~repro.tedstore.sharding.ShardedKeyManager` front
    (DESIGN.md §15) — so load profiles can gate
    the sharded path's throughput the same way they gate the single
    engine's. Ignored for TCP targets (the servers own their topology).
    """

    shards: int = 1
    ring_seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")


@dataclass(frozen=True)
class FaultMix:
    """Seeded fault-injection rates applied to every client transport.

    Mirrors :class:`~repro.tedstore.faults.FaultPlan`; kept as a
    separate declarative shape so profiles stay plain data and the
    injectable ``sleep`` never appears in TOML.
    """

    drop_rate: float = 0.0
    close_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    corrupt_rate: float = 0.0

    def enabled(self) -> bool:
        return any(
            (
                self.drop_rate,
                self.close_rate,
                self.delay_rate,
                self.corrupt_rate,
            )
        )

    def plan(self, seed: int) -> FaultPlan:
        return FaultPlan(
            drop_rate=self.drop_rate,
            close_rate=self.close_rate,
            delay_rate=self.delay_rate,
            delay_seconds=self.delay_seconds,
            corrupt_rate=self.corrupt_rate,
            seed=seed,
        )


@dataclass(frozen=True)
class WorkloadProfile:
    """One declarative load-generator run."""

    name: str = "adhoc"
    mode: str = "closed"
    clients: int = 4
    think_seconds: float = 0.0
    arrival_rate: float = 20.0
    max_inflight: int = 8
    queue_limit: int = 64
    duration_seconds: float = 5.0
    seed: int = 2013
    files: FileShape = field(default_factory=FileShape)
    mix: OpMix = field(default_factory=OpMix)
    tenants: TenantShape = field(default_factory=TenantShape)
    faults: FaultMix = field(default_factory=FaultMix)
    deployment: DeploymentShape = field(default_factory=DeploymentShape)
    slos: Tuple[SLO, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.clients < 1:
            raise ValueError("clients must be at least 1")
        if self.think_seconds < 0:
            raise ValueError("think_seconds cannot be negative")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        ops = {slo.op for slo in self.slos}
        if len(ops) != len(self.slos):
            raise ValueError("duplicate SLO op in profile")

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Shrink (or grow) the run while keeping its shape.

        Concurrency, arrival rate, and duration scale together — the
        smoke-scale knob the benchmarks and CI use (``--scale 0.15``
        mirrors ``REPRO_BENCH_SCALE``). Tenancy, mix, and SLOs are
        shape, not size, and stay put.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if factor == 1.0:
            return self
        return replace(
            self,
            clients=max(1, round(self.clients * factor)),
            arrival_rate=max(0.5, self.arrival_rate * factor),
            max_inflight=max(1, round(self.max_inflight * factor)),
            duration_seconds=max(1.0, self.duration_seconds * factor),
        )

    # -- loading --------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadProfile":
        """Build a profile from a TOML-shaped mapping; unknown keys fail."""
        data = dict(data)
        kwargs: Dict[str, object] = {}
        for key in (
            "name",
            "mode",
            "clients",
            "think_seconds",
            "arrival_rate",
            "max_inflight",
            "queue_limit",
            "duration_seconds",
            "seed",
        ):
            if key in data:
                kwargs[key] = data.pop(key)
        if "files" in data:
            kwargs["files"] = FileShape(**data.pop("files"))
        if "mix" in data:
            kwargs["mix"] = OpMix(**data.pop("mix"))
        if "tenants" in data:
            kwargs["tenants"] = TenantShape(**data.pop("tenants"))
        if "faults" in data:
            kwargs["faults"] = FaultMix(**data.pop("faults"))
        if "deployment" in data:
            kwargs["deployment"] = DeploymentShape(**data.pop("deployment"))
        if "slo" in data:
            slos = []
            for op, targets in data.pop("slo").items():
                targets = dict(targets)
                p99_ms = targets.pop("p99_ms", None)
                max_error_ratio = targets.pop("max_error_ratio", None)
                window_seconds = targets.pop("window_seconds", 10.0)
                if targets:
                    raise ValueError(
                        f"unknown SLO keys for {op!r}: {sorted(targets)}"
                    )
                slos.append(
                    SLO(
                        op=op,
                        p99_seconds=(
                            p99_ms / 1000.0 if p99_ms is not None else None
                        ),
                        max_error_ratio=max_error_ratio,
                        window_seconds=window_seconds,
                    )
                )
            kwargs["slos"] = tuple(slos)
        if data:
            raise ValueError(f"unknown profile keys: {sorted(data)}")
        return cls(**kwargs)

    @classmethod
    def from_toml(cls, path) -> "WorkloadProfile":
        if tomllib is not None:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        else:
            data = _parse_simple_toml(Path(path).read_text("utf-8"))
        profile = cls.from_dict(data)
        if profile.name == "adhoc":
            profile = replace(profile, name=Path(path).stem)
        return profile


def _parse_simple_toml(text: str) -> Dict:
    """Minimal TOML-subset parser for profile files on Python 3.10.

    Supports exactly what profiles use — ``[dotted.tables]`` and
    ``key = value`` lines with string/int/float/bool scalars — and
    raises on anything fancier, steering users to real TOML (3.11+).
    """
    root: Dict = {}
    table = root
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for part in line[1:-1].strip().split("."):
                table = table.setdefault(part.strip(), {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"unparseable profile line: {raw!r}")
        key = key.strip()
        value = value.strip()
        if value.startswith(('"', "'")) and value.endswith(value[0]):
            table[key] = value[1:-1]
        elif value in ("true", "false"):
            table[key] = value == "true"
        else:
            try:
                table[key] = (
                    float(value) if "." in value or "e" in value.lower()
                    else int(value)
                )
            except ValueError:
                raise ValueError(
                    f"unsupported profile value {value!r} (the fallback "
                    "parser handles scalars only; use Python 3.11+ for "
                    "full TOML)"
                ) from None
    return root


__all__ = [
    "DeploymentShape",
    "FaultMix",
    "FileShape",
    "OpMix",
    "TenantShape",
    "WorkloadProfile",
]
