"""Result records: what one simulation run produced, as plain data.

The leaf of the import graph: the simulator (:mod:`repro.sim.system`,
:mod:`repro.sim.runner`) fills these in, the campaign store encodes and
decodes them, and the result service reads them — so this module imports
nothing from any of those, and a process that only reads a store never
loads the simulator. ``repro.sim.system`` and ``repro.sim.runner``
re-export their records from here; there is one class object per name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:
    from .metrics.metrics import MetricSummary


@dataclass(frozen=True)
class ThreadResult:
    """Per-thread outcome of one run."""

    thread_id: int
    app: str
    ipc: float
    retired_insts: int
    reads: int
    writes: int
    llc_miss_rate: float
    row_hit_rate: float
    mean_read_latency: float


@dataclass
class SystemResult:
    """Everything a run produced."""

    horizon: int
    threads: Dict[int, ThreadResult] = field(default_factory=dict)
    total_commands: int = 0
    total_refreshes: int = 0
    pages_migrated: int = 0
    engine_events: int = 0
    #: Fraction of each channel's data-bus time spent transferring data.
    bus_utilization: Dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadRunMetrics:
    """Metrics of one (mix, approach) run."""

    mix: str
    approach: str
    summary: MetricSummary
    slowdowns: Dict[int, float]
    apps: Sequence[str]

    @property
    def weighted_speedup(self) -> float:
        return self.summary.weighted_speedup

    @property
    def max_slowdown(self) -> float:
        return self.summary.max_slowdown

    @property
    def harmonic_speedup(self) -> float:
        return self.summary.harmonic_speedup


@dataclass
class RunResult:
    """Metrics plus the raw system result, for deeper inspection."""

    metrics: WorkloadRunMetrics
    system: SystemResult
    alone_ipcs: Dict[int, float] = field(default_factory=dict)
    shared_ipcs: Dict[int, float] = field(default_factory=dict)
    #: Telemetry run digest (:meth:`TelemetryRecorder.summary`) when the
    #: Runner recorded the run; None otherwise. Persisted with the result.
    telemetry: Optional[Dict[str, object]] = None
    #: Deterministic metrics-registry snapshot
    #: (:meth:`System.metrics_registry` → :meth:`MetricsRegistry.snapshot`)
    #: collected after every simulated run. Persisted with the result;
    #: render it with :func:`repro.metrics.prometheus_text`.
    metrics_snapshot: Optional[Dict[str, object]] = None
    #: Wall-clock profile (:meth:`System.profile_report`) when the Runner
    #: was built with ``profile=True``; never persisted (host-specific).
    profile: Optional[Dict[str, object]] = None

