"""Human-readable views of recorded telemetry.

Two tables, built for terminal widths:

* the **epoch timeline** — one row per recorded boundary: which consumers
  fired, aggregate thread behaviour, queue depths, migration traffic;
* the **decisions table** — one row per *policy* epoch: each thread's
  estimated bank demand, the colors it was assigned, and the scheduler's
  quantum/batch state at that boundary.

Both renderers take a list of epoch records: a live
:class:`~repro.telemetry.recorder.TelemetryRecorder`'s ``records`` or the
``records`` of an epoch log read back from disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _colors_compact(colors: List[int]) -> str:
    """Render a sorted color list as compact ranges: [0-3,7]."""
    if not colors:
        return "[]"
    parts = []
    start = prev = colors[0]
    for color in colors[1:]:
        if color == prev + 1:
            prev = color
            continue
        parts.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = color
    parts.append(f"{start}-{prev}" if prev > start else f"{start}")
    return "[" + ",".join(parts) + "]"


def _sched_compact(doc: Dict[str, object]) -> str:
    """One-cell digest of a scheduler's telemetry_state document."""
    name = doc.get("name", "?")
    if name == "tcm":
        latency = sorted(doc.get("latency_cluster", []))
        bandwidth = sorted(doc.get("bandwidth_cluster", []))
        return (
            f"tcm L={_colors_compact(latency)} "
            f"B={_colors_compact(bandwidth)}"
        )
    if name == "parbs":
        return (
            f"parbs batch#{doc.get('batches', '?')} "
            f"marked={doc.get('marked', '?')}"
        )
    if name == "atlas":
        rank = doc.get("rank") or []
        top = f"t{rank[0]}" if rank else "-"
        return f"atlas top={top} q#{doc.get('quanta', '?')}"
    return str(name)


def render_timeline(
    records: Sequence[Dict[str, object]], last: Optional[int] = None
) -> str:
    """The epoch timeline table (optionally only the newest ``last`` rows)."""
    if last is not None:
        records = records[-last:]
    header = (
        f"{'cycle':>10} {'fired':<5} {'reqs':>6} {'bw':>6} {'maxMPKI':>8} "
        f"{'rdQ':>4} {'wrQ':>4} {'migCAS':>6} {'repart':>6} {'moved':>6}"
    )
    lines = [header, "-" * len(header)]
    for record in records:
        threads = record["threads"].values()
        requests = sum(t["requests"] for t in threads)
        bandwidth = sum(t["bandwidth"] for t in threads)
        max_mpki = max((t["mpki"] for t in threads), default=0.0)
        controllers = record["controllers"]
        read_q = sum(c["read_queue_depth"] for c in controllers)
        write_q = sum(c["write_queue_depth"] for c in controllers)
        mig = sum(c["migration_casses"] for c in controllers)
        fired = ("Q" if record["fired_quantum"] else "-") + (
            "P" if record["fired_policy"] else "-"
        )
        policy = record.get("policy", {})
        repart = policy.get("repartitions", "")
        moved = policy.get("pages_migrated_epoch", "")
        lines.append(
            f"{record['cycle']:>10} {fired:<5} {requests:>6} "
            f"{bandwidth:>6.2f} {max_mpki:>8.1f} {read_q:>4} {write_q:>4} "
            f"{mig:>6} {repart!s:>6} {moved!s:>6}"
        )
    return "\n".join(lines)


def render_decisions(records: Sequence[Dict[str, object]]) -> str:
    """The policy-decisions table (policy epochs only)."""
    records = [r for r in records if r.get("policy")]
    if not records:
        return "(no policy epochs recorded)"
    thread_ids = sorted(
        {t for r in records for t in r["threads"]}, key=int
    )
    cells = [
        f"t{t}: demand->colors" for t in thread_ids
    ]
    header = (
        f"{'cycle':>10} {'policy':<8} "
        + " | ".join(f"{c:<22}" for c in cells)
        + f" | {'scheduler':<24}"
    )
    lines = [header, "-" * len(header)]
    for record in records:
        policy = record["policy"]
        demands = policy.get("demands", {})
        allocation = policy.get("allocation", {})
        row = []
        for t in thread_ids:
            demand = demands.get(t)
            if demand is None:
                want = "?"
            elif not demand.get("intensive", True):
                want = "pool"
            else:
                want = str(demand.get("banks", "?"))
            colors = allocation.get(t)
            got = _colors_compact(colors) if colors is not None else "-"
            row.append(f"{want:>4} -> {got:<14}")
        sched = record.get("scheduler")
        sched_cell = _sched_compact(sched) if sched else "-"
        lines.append(
            f"{record['cycle']:>10} {policy.get('name', '?'):<8} "
            + " | ".join(row)
            + f" | {sched_cell:<24}"
        )
    return "\n".join(lines)
