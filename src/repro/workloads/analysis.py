"""Trace analysis: characterize a workload before simulating it.

Computes the static properties of a :class:`~repro.cpu.trace.Trace` that
predict its memory behaviour — intensity, sequential-run structure (row
locality), burst structure (bank-level parallelism potential), footprint,
reuse. Used by the ``repro-dbp traces`` CLI command and handy when
designing custom application profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..cpu.trace import Trace
from ..workloads.synthetic import LINES_PER_PAGE

#: The paper family's convention: an app with MPKI >= 1 is memory-intensive
#: and worth dedicated banks. The same threshold drives
#: :attr:`~repro.workloads.profiles.AppProfile.intensive`, DBP's demand
#: estimator default, and the trace library's characterization pass.
INTENSIVE_MPKI_THRESHOLD = 1.0


def _percentile(sorted_values: Sequence[int], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return float(sorted_values[index])


@dataclass(frozen=True)
class TraceAnalysis:
    """Static characterization of one trace."""

    name: str
    records: int
    total_insts: int
    intrinsic_mpki: float
    write_fraction: float
    footprint_pages: int
    footprint_lines: int
    reuse_fraction: float  # lines touched more than once
    mean_gap: float
    p95_gap: float
    mean_run_length: float  # consecutive vline+1 chains
    mean_burst_size: float  # consecutive records with gap <= 2
    max_burst_size: int

    @property
    def intensive(self) -> bool:
        """Memory-intensive by intrinsic MPKI (pre-cache upper bound)."""
        return self.intrinsic_mpki >= INTENSIVE_MPKI_THRESHOLD

    def render(self) -> str:
        rows = [
            ("records", f"{self.records}"),
            ("instructions", f"{self.total_insts}"),
            ("intrinsic MPKI", f"{self.intrinsic_mpki:.2f}"),
            ("write fraction", f"{self.write_fraction:.2f}"),
            (
                "footprint",
                f"{self.footprint_pages} pages "
                f"({self.footprint_pages * 4} KB)",
            ),
            ("line reuse", f"{self.reuse_fraction:.2f}"),
            ("gap mean / p95", f"{self.mean_gap:.1f} / {self.p95_gap:.0f}"),
            ("mean seq-run length", f"{self.mean_run_length:.2f}"),
            (
                "burst size mean / max",
                f"{self.mean_burst_size:.2f} / {self.max_burst_size}",
            ),
        ]
        width = max(len(label) for label, _ in rows)
        lines = [f"{self.name}:"]
        lines.extend(f"  {label:<{width}} : {value}" for label, value in rows)
        return "\n".join(lines)


def analyze_trace(trace: Trace) -> TraceAnalysis:
    """Compute a :class:`TraceAnalysis` for one trace."""
    vlines = trace.vlines
    gaps = sorted(trace.gaps)
    touched: Dict[int, int] = {}
    for vline in vlines:
        touched[vline] = touched.get(vline, 0) + 1
    reused = sum(1 for count in touched.values() if count > 1)
    # Sequential run lengths: chains of vline -> vline + 1.
    run_lengths: List[int] = []
    current = 1
    for prev, cur in zip(vlines, vlines[1:]):
        if cur == prev + 1:
            current += 1
        else:
            run_lengths.append(current)
            current = 1
    run_lengths.append(current)
    # Burst sizes: consecutive records with tiny compute gaps.
    burst_sizes: List[int] = []
    burst = 1
    for gap in trace.gaps[1:]:
        if gap <= 2:
            burst += 1
        else:
            burst_sizes.append(burst)
            burst = 1
    burst_sizes.append(burst)
    pages = {vline // LINES_PER_PAGE for vline in vlines}
    return TraceAnalysis(
        name=trace.name,
        records=len(trace),
        total_insts=trace.total_insts,
        intrinsic_mpki=trace.intrinsic_mpki,
        write_fraction=sum(trace.writes) / len(trace),
        footprint_pages=len(pages),
        footprint_lines=len(touched),
        reuse_fraction=reused / len(touched) if touched else 0.0,
        mean_gap=sum(gaps) / len(gaps),
        p95_gap=_percentile(gaps, 0.95),
        mean_run_length=sum(run_lengths) / len(run_lengths),
        mean_burst_size=sum(burst_sizes) / len(burst_sizes),
        max_burst_size=max(burst_sizes),
    )
