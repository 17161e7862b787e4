"""Measured characterization: run a trace alone, read MPKI/RBH/BLP.

This module measures what the *machine* observes — post-cache MPKI,
row-buffer hit rate, bank-level parallelism, alone IPC — by replaying the
trace on a single-core unpartitioned FR-FCFS system
(:meth:`SystemConfig.alone`), the one ``Runner.alone_ipc`` measures every
speedup denominator on. The intensive/light classification reuses the
:data:`~repro.workloads.profiles.INTENSIVE_MPKI_THRESHOLD` convention the
partitioning policies key on, so an imported real trace slots into DBP's
thread classes on the same terms as the synthetic apps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from ..cpu.trace import Trace
from ..errors import ExperimentError
from ..workloads.profiles import INTENSIVE_MPKI_THRESHOLD


@dataclass(frozen=True)
class TraceCharacterization:
    """Measured alone-run behaviour of one trace."""

    name: str
    digest: str
    horizon: int
    #: Post-LLC memory accesses per kilo-instruction, as the profiler saw.
    mpki: float
    #: Row-buffer hit rate among served requests.
    rbh: float
    #: Time-weighted mean banks holding outstanding requests.
    blp: float
    #: Fraction of data-bus cycles the thread kept busy.
    bandwidth: float
    ipc_alone: float
    llc_miss_rate: float
    records: int
    total_insts: int
    footprint_lines: int

    @property
    def intensive(self) -> bool:
        """Memory-intensive by the standard measured-MPKI convention."""
        return self.mpki >= INTENSIVE_MPKI_THRESHOLD

    @property
    def mpki_class(self) -> str:
        return "intensive" if self.intensive else "light"

    def as_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        doc["class"] = self.mpki_class
        return doc

    def render(self) -> str:
        rows = [
            ("class", self.mpki_class),
            ("measured MPKI", f"{self.mpki:.2f}"),
            ("row-buffer hit rate", f"{self.rbh:.2f}"),
            ("bank-level parallelism", f"{self.blp:.2f}"),
            ("bandwidth share", f"{self.bandwidth:.3f}"),
            ("alone IPC", f"{self.ipc_alone:.3f}"),
            ("LLC miss rate", f"{self.llc_miss_rate:.2f}"),
            ("records", f"{self.records}"),
            ("instructions", f"{self.total_insts}"),
            ("footprint lines", f"{self.footprint_lines}"),
        ]
        width = max(len(label) for label, _ in rows)
        lines = [f"{self.name} (digest {self.digest[:12]}…):"]
        lines.extend(f"  {label:<{width}} : {value}" for label, value in rows)
        return "\n".join(lines)


def characterize_trace(
    trace: Trace,
    config=None,
    horizon: int = 200_000,
    ahead_limit: int = 8192,
) -> TraceCharacterization:
    """Measure one trace alone on the single-core FR-FCFS baseline system.

    Runs on :meth:`SystemConfig.alone` (one core, unpartitioned, FR-FCFS)
    so the numbers are commensurable with every alone-run baseline in the
    repo. Neither the shared policy nor FR-FCFS has an
    epoch cadence, so one post-run profiler snapshot covers the whole run.
    """
    from ..config import SystemConfig
    from ..sim.system import System

    if horizon <= 0:
        raise ExperimentError("characterization horizon must be positive")
    base = config if config is not None else SystemConfig()
    system = System(
        base.alone(), [trace], horizon=horizon, ahead_limit=ahead_limit
    )
    result = system.run()
    thread = result.threads[0]
    if thread.retired_insts <= 0:
        raise ExperimentError(
            f"characterization run of {trace.name!r} retired nothing "
            f"(horizon {horizon} too short?)"
        )
    profile = system.profiler.snapshot(horizon).threads[0]
    return TraceCharacterization(
        name=trace.name,
        digest=trace.digest,
        horizon=horizon,
        mpki=profile.mpki,
        rbh=profile.rbh,
        blp=profile.blp,
        bandwidth=profile.bandwidth,
        ipc_alone=thread.ipc,
        llc_miss_rate=thread.llc_miss_rate,
        records=len(trace),
        total_insts=trace.total_insts,
        footprint_lines=trace.footprint_lines(),
    )
