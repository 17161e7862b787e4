"""Digest the fast-kernel introspection counters out of a snapshot.

The flight-recorder counters (``repro_kernel_*``) are plain ints bumped
inside the fast decision kernel and exported through the metrics
registry after a run.  This module turns a registry *snapshot* — live
or one persisted in ``RunResult.metrics_snapshot`` — into the derived
quantities that actually explain kernel behaviour: the wake-memo
short-circuit ratio (the headline ~2/3 figure from the kernel rebuild),
best-memo hit rates, mean bucket scan lengths, and the invalidation
cause mix.  ``repro-dbp explain --show kernel`` renders the result.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["kernel_counter_summary", "render_kernel_summary"]


def _series(snapshot: Dict[str, object], name: str) -> List[Dict[str, object]]:
    for metric in snapshot.get("metrics", []):
        if metric.get("name") == name:
            return metric.get("samples", [])
    return []


def _total(
    snapshot: Dict[str, object], name: str, **match: str
) -> float:
    """Sum a metric's samples across channels, filtered by labels."""
    total = 0.0
    for sample in _series(snapshot, name):
        labels = sample.get("labels", {})
        if all(labels.get(k) == v for k, v in match.items()):
            total += sample.get("value", 0)
    return total


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    if denominator <= 0:
        return None
    return numerator / denominator


def kernel_counter_summary(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Derived kernel statistics from one metrics snapshot.

    All ratios are ``None`` (rather than zero) when their denominator is
    empty — a snapshot without the counters reports a structurally
    identical summary with every count at zero and every ratio ``None``.
    """
    decisions = _total(snapshot, "repro_kernel_decisions_total")
    wake_hits = _total(
        snapshot, "repro_kernel_wake_memo_total", result="hit"
    )
    wake_misses = _total(
        snapshot, "repro_kernel_wake_memo_total", result="miss"
    )
    scans = _total(snapshot, "repro_kernel_scans_total")
    best_hits = _total(
        snapshot, "repro_kernel_best_memo_total", result="hit"
    )
    best_misses = _total(
        snapshot, "repro_kernel_best_memo_total", result="miss"
    )
    scanned = _total(snapshot, "repro_kernel_scanned_requests_total")
    floor_computed = _total(
        snapshot, "repro_kernel_cas_floor_total", result="computed"
    )
    floor_skipped = _total(
        snapshot, "repro_kernel_cas_floor_total", result="skipped"
    )
    causes: Dict[str, float] = {
        cause: 0.0
        for cause in (
            "enqueue", "activate", "precharge", "cas", "refresh", "token"
        )
    }
    for sample in _series(snapshot, "repro_kernel_invalidations_total"):
        cause = sample.get("labels", {}).get("cause")
        if cause is not None:
            causes[cause] = causes.get(cause, 0) + sample.get("value", 0)
    agenda_peak = _total(snapshot, "repro_kernel_agenda_peak")
    return {
        "decisions": int(decisions),
        "wake_memo": {
            "hits": int(wake_hits),
            "misses": int(wake_misses),
            # A hit issues with no bucket scan at all. The ratio is over
            # memo-armed decisions (hit + miss): decisions where no memo
            # was armed (first visit after invalidation) go straight to a
            # scan and belong to neither bucket. This is the ~2/3 figure
            # from the kernel rebuild.
            "short_circuit_ratio": _ratio(wake_hits, wake_hits + wake_misses),
            "decision_share": _ratio(wake_hits, decisions),
        },
        "scans": int(scans),
        "best_memo": {
            "hits": int(best_hits),
            "misses": int(best_misses),
            "hit_rate": _ratio(best_hits, best_hits + best_misses),
        },
        "scanned_requests": int(scanned),
        "mean_scan_length": _ratio(scanned, best_misses),
        "cas_floor": {
            "computed": int(floor_computed),
            "skipped": int(floor_skipped),
            "skip_rate": _ratio(
                floor_skipped, floor_computed + floor_skipped
            ),
        },
        "invalidations": {k: int(v) for k, v in sorted(causes.items())},
        "agenda_peak": int(agenda_peak),
    }


def _pct(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100 * value:.1f}%"


def _num(value: Optional[float], fmt: str = "{:.1f}") -> str:
    return "n/a" if value is None else fmt.format(value)


def render_kernel_summary(summary: Dict[str, object]) -> str:
    """Human-readable report for ``repro-dbp explain --show kernel``."""
    wake = summary["wake_memo"]
    best = summary["best_memo"]
    floor = summary["cas_floor"]
    lines = [
        "kernel introspection counters",
        f"  decisions                 {summary['decisions']:>12,}",
        f"  wake-memo short-circuits  {wake['hits']:>12,}  "
        f"({_pct(wake['short_circuit_ratio'])} of memo-armed decisions, "
        f"{_pct(wake['decision_share'])} of all)",
        f"  wake-memo misses          {wake['misses']:>12,}",
        f"  full bucket scans         {summary['scans']:>12,}",
        f"  best-memo hits            {best['hits']:>12,}  "
        f"({_pct(best['hit_rate'])} of bank visits)",
        f"  best-memo misses          {best['misses']:>12,}",
        f"  requests rescanned        {summary['scanned_requests']:>12,}  "
        f"(mean {_num(summary['mean_scan_length'])} per dirty bank)",
        f"  cas floors computed       {floor['computed']:>12,}",
        f"  cas floors reused         {floor['skipped']:>12,}  "
        f"({_pct(floor['skip_rate'])} skip rate)",
        f"  agenda depth high-water   {summary['agenda_peak']:>12,}",
        "  best-memo invalidations by cause:",
    ]
    for cause, count in summary["invalidations"].items():
        lines.append(f"    {cause:<10} {count:>12,}")
    return "\n".join(lines)
