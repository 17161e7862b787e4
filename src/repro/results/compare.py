"""A/B diffing of two result sets (campaigns or store snapshots).

:func:`compare_indexes` lines two indexes up on run *identity* — the
(mix, approach, seed, horizon, target_insts) scope, not the content key,
so a code change that shifts every hash still diffs run-for-run — and
produces a ``compare_summary`` table of metric deltas:

* ``same``      — every headline metric within ``tolerance_pct``;
* ``improved``  — WS up or MS down beyond tolerance, nothing regressed;
* ``regressed`` — WS down or MS up beyond tolerance (flagged, and the
  CLI's ``--fail-on-regression`` turns them into a non-zero exit);
* ``only_a`` / ``only_b`` — runs present on one side only.

Each side is a store directory (:func:`repro.results.db.open_index`
syncs its index on the fly), so "diff yesterday's store backup against
today's" and "diff two campaign hosts" are the same operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.report import render_table
from .db import ResultIndex
from .views import METRICS, gain_pct

#: Row identity for diffing: everything that scopes a run except the
#: content hash (which deliberately changes across STORE_VERSION bumps).
DiffKey = Tuple[str, str, object, object, object]


def _diff_key(row: Dict[str, object]) -> DiffKey:
    return (
        str(row["mix"]), str(row["approach"]), row["seed"], row["horizon"],
        row["target_insts"],
    )


@dataclass
class CompareSummary:
    """The full A/B diff, one row per run identity."""

    label_a: str
    label_b: str
    tolerance_pct: float
    rows: List[Dict[str, object]] = field(default_factory=list)

    def with_status(self, status: str) -> List[Dict[str, object]]:
        return [r for r in self.rows if r["status"] == status]

    @property
    def regressions(self) -> List[Dict[str, object]]:
        return self.with_status("regressed")

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self.rows:
            out[row["status"]] = out.get(row["status"], 0) + 1
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "tolerance_pct": self.tolerance_pct,
            "counts": self.counts,
            "compare_summary": list(self.rows),
        }


def compare_indexes(
    index_a: ResultIndex,
    index_b: ResultIndex,
    *,
    label_a: str = "A",
    label_b: str = "B",
    tolerance_pct: float = 0.5,
    current_version_only: bool = True,
) -> CompareSummary:
    """Diff B against A: positive deltas mean B improved on A."""
    sides = []
    for index in (index_a, index_b):
        sides.append(
            {
                _diff_key(r): r
                for r in index.rows(
                    current_version_only=current_version_only
                )
            }
        )
    a_rows, b_rows = sides
    summary = CompareSummary(
        label_a=label_a, label_b=label_b, tolerance_pct=tolerance_pct
    )
    for key in sorted(
        set(a_rows) | set(b_rows), key=lambda k: tuple(map(str, k))
    ):
        mix, approach, seed, horizon, target_insts = key
        row: Dict[str, object] = {
            "mix": mix,
            "approach": approach,
            "seed": seed,
            "horizon": horizon,
            "target_insts": target_insts,
        }
        a, b = a_rows.get(key), b_rows.get(key)
        if a is None or b is None:
            row["status"] = "only_b" if a is None else "only_a"
            present = b if a is None else a
            for metric in METRICS:
                row[metric] = float(present[metric])
            summary.rows.append(row)
            continue
        improved = regressed = False
        for metric in METRICS:
            va, vb = float(a[metric]), float(b[metric])
            delta = gain_pct(vb, va, metric=metric)
            row[f"{metric}_a"] = va
            row[f"{metric}_b"] = vb
            row[f"{metric}_delta_pct"] = delta
            if metric in ("ws", "ms"):
                if delta > tolerance_pct:
                    improved = True
                elif delta < -tolerance_pct:
                    regressed = True
        row["identical_key"] = a["key"] == b["key"]
        row["status"] = (
            "regressed" if regressed else "improved" if improved else "same"
        )
        summary.rows.append(row)
    return summary


def render_compare(summary: CompareSummary) -> str:
    """The compare_summary as a text table plus a verdict block."""
    def fmt(row: Dict[str, object], metric: str) -> object:
        if f"{metric}_delta_pct" in row:
            return f"{row[f'{metric}_delta_pct']:+.2f}"
        return "-"

    rows = [
        [
            r["mix"], r["approach"],
            "-" if r["seed"] is None else r["seed"],
            r["status"], fmt(r, "ws"), fmt(r, "hs"), fmt(r, "ms"),
        ]
        for r in summary.rows
    ]
    table = render_table(
        ["mix", "approach", "seed", "status", "dWS%", "dHS%", "dMS%"],
        rows,
    )
    counts = summary.counts
    count_line = ", ".join(
        f"{counts[s]} {s}"
        for s in ("same", "improved", "regressed", "only_a", "only_b")
        if s in counts
    ) or "no runs on either side"
    parts = [
        f"compare {summary.label_b} (B) against {summary.label_a} (A), "
        f"tolerance ±{summary.tolerance_pct}% "
        f"(dMS% positive = fairness improved)",
        table,
        count_line,
    ]
    for row in summary.regressions:
        parts.append(
            f"REGRESSION: {row['mix']}/{row['approach']} "
            f"s{row['seed']} — WS {fmt(row, 'ws')}%, MS {fmt(row, 'ms')}%"
        )
    return "\n".join(parts)
