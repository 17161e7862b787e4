"""Campaign progress lines and the end-of-campaign report.

:class:`ProgressPrinter` is the executor's ``progress`` callback for
interactive use: one line per settled run with running counts, the run's
wall-clock, and an ETA extrapolated from the mean executed-run time and the
worker count. :func:`render_report` turns a finished
:class:`~repro.campaign.executor.CampaignResult` into the paper-style text
table the CLI prints.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Dict, Iterable, List, Optional

from ..experiments.report import render_table
from .executor import CampaignResult, RunOutcome
from .store import ResultStore


class ProgressPrinter:
    """Prints one status line per settled run, with counts and an ETA."""

    def __init__(
        self,
        total: int,
        jobs: int = 1,
        stream: Optional[IO[str]] = None,
        enabled: bool = True,
    ) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.started = time.perf_counter()
        self._executed_walls: List[float] = []
        self.completed = 0
        self.cached = 0
        self.failed = 0
        #: Attempts across every settled run.
        self.attempts = 0

    def __call__(self, outcome: RunOutcome, done: int, total: int) -> None:
        if outcome.status == "ok":
            self.completed += 1
            self._executed_walls.append(outcome.wall_clock)
        elif outcome.status == "cached":
            self.cached += 1
        else:
            self.failed += 1
        self.attempts += outcome.attempts
        if not self.enabled:
            return
        width = len(str(self.total))
        line = (
            f"[{done:>{width}}/{total}] {outcome.spec.label:<28} "
            f"{outcome.status:<6}"
        )
        if outcome.status == "ok":
            line += f" {outcome.wall_clock:6.1f}s"
            if outcome.attempts > 1:
                line += f" (attempt {outcome.attempts})"
        elif outcome.status == "failed":
            line += f" after {outcome.attempts} attempt(s) ({outcome.error})"
        eta = self._eta(done)
        if eta is not None:
            line += f"  eta {eta:.0f}s"
        print(line, file=self.stream, flush=True)

    def _eta(self, done: int) -> Optional[float]:
        remaining = self.total - done
        if remaining <= 0 or not self._executed_walls:
            return None
        mean = sum(self._executed_walls) / len(self._executed_walls)
        return remaining * mean / self.jobs


def aggregate_telemetry(
    outcomes: Iterable[RunOutcome],
) -> Optional[Dict[str, object]]:
    """Merge per-run telemetry summaries across a campaign.

    Each worker's :class:`RunResult` carries the
    :meth:`TelemetryRecorder.summary` digest of its own run (cached runs
    carry the digest persisted with the store entry). Counter-like fields
    sum, queue depths take the max. Returns None when no outcome carried
    telemetry at all — the campaign ran without recording.
    """
    summed = (
        "epochs",
        "quanta",
        "policy_epochs",
        "migration_casses",
        "repartitions",
        "pages_migrated",
    )
    maxed = ("max_read_queue_depth", "max_write_queue_depth")
    outcomes = list(outcomes)
    merged: Dict[str, object] = {key: 0 for key in summed + maxed}
    merged["runs"] = 0
    seen = False
    for outcome in outcomes:
        summary = outcome.result.telemetry if outcome.result else None
        if not summary:
            continue
        seen = True
        merged["runs"] += 1
        for key in summed:
            if key in summary:
                merged[key] += summary[key]
        for key in maxed:
            merged[key] = max(merged[key], summary.get(key, 0))
    if not seen:
        return None
    # Fields no run reported (e.g. repartitions under static policies)
    # would read as a misleading 0 — drop them instead.
    for key in summed:
        if merged[key] == 0 and not any(
            key in (o.result.telemetry or {})
            for o in outcomes
            if o.result is not None
        ):
            del merged[key]
    return merged


def render_report(
    result: CampaignResult, store: Optional[ResultStore] = None
) -> str:
    """The finished campaign as a text table plus a summary block."""
    columns = [
        "mix", "approach", "seed", "horizon", "status", "tries", "ws", "hs",
        "ms", "secs",
    ]
    rows: List[List[object]] = []
    for outcome in result.outcomes:
        spec = outcome.spec
        metrics = outcome.result.metrics if outcome.result else None
        rows.append(
            [
                spec.mix_name or "+".join(spec.apps),
                spec.approach,
                spec.seed,
                spec.horizon,
                outcome.status,
                outcome.attempts,
                metrics.weighted_speedup if metrics else "-",
                metrics.harmonic_speedup if metrics else "-",
                metrics.max_slowdown if metrics else "-",
                round(outcome.wall_clock, 1),
            ]
        )
    executed = result.executed
    parts = [render_table(columns, rows), ""]
    parts.append(
        f"runs: {len(result.outcomes)} total, {len(executed)} executed, "
        f"{len(result.cached)} cached "
        f"({100.0 * result.cache_hit_rate:.0f}% hit rate), "
        f"{len(result.failed)} failed"
    )
    parts.append(f"campaign wall-clock: {result.wall_clock:.1f}s")
    if result.time_lost_to_faults > 0 or result.pool_respawns > 0:
        parts.append(
            f"faults: {result.time_lost_to_faults:.1f}s lost to failed "
            f"attempts, {result.pool_respawns} worker(s) replaced"
        )
    recovered = [
        o for o in result.executed if o.failure is not None
    ]
    for outcome in recovered:
        parts.append(
            f"RECOVERED on attempt {outcome.attempts}: "
            f"{outcome.spec.label} — "
            f"{outcome.failure.attempts[-1].error_type} on earlier tries"
        )
    telemetry = aggregate_telemetry(result.outcomes)
    if telemetry is not None:
        fields = ", ".join(
            f"{key}={telemetry[key]}"
            for key in sorted(telemetry)
            if key != "runs"
        )
        parts.append(
            f"telemetry: {telemetry['runs']} recorded run(s); {fields}"
        )
    if store is not None:
        stats = store.stats
        parts.append(
            f"store: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.writes} writes, {stats.corrupt} quarantined, "
            f"{stats.wall_saved:.1f}s of simulation re-served from disk "
            f"({store.root})"
        )
    for outcome in result.failed:
        parts.append(
            f"FAILED after {outcome.attempts} attempt(s): "
            f"{outcome.spec.label} — {outcome.error}"
        )
    return "\n".join(parts)
