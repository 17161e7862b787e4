"""Derived views over the result index.

Three queryable shapes, all built from :meth:`ResultIndex.rows`:

* :func:`pair_deltas` — per-mix WS/HS/MS deltas between an approach pair,
  matched cell-by-cell on (mix, seed, horizon, target_insts) so only runs
  with identical scope are ever compared;
* :func:`approach_rollup` — per-approach aggregates across every indexed
  run (mean/min/max and geomean of each headline metric);
* :func:`intensity_breakdown` — the same rollup split by workload
  intensity class (the mix categories of Table 3: H4, H3L1, H2L2, ...).

Gains follow the paper's conventions: throughput gain is the percent
increase in (geomean) weighted/harmonic speedup, fairness gain is the
percent *reduction* in maximum slowdown. The acceptance gates in
:mod:`repro.results.gates` evaluate their predicates on these views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.report import render_table
from .db import ResultIndex, ResultsError

#: The metrics every view reports, in display order.
METRICS = ("ws", "hs", "ms")

#: Identity of one run cell; approaches are only ever compared when every
#: one of these scope fields matches.
CellKey = Tuple[str, object, object, object]


def _cell_key(row: Dict[str, object]) -> CellKey:
    return (
        str(row["mix"]), row["seed"], row["horizon"], row["target_insts"]
    )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; raises on empty or non-positive input."""
    if not values:
        raise ResultsError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ResultsError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def gain_pct(new: float, base: float, *, metric: str) -> float:
    """Signed improvement of ``new`` over ``base`` for one metric.

    Positive always means "better": for WS/HS that is a higher value
    (percent increase); for MS it is a lower value (percent reduction —
    the paper's "fairness gain").
    """
    if base <= 0:
        raise ResultsError(f"non-positive baseline {metric}={base}")
    if metric == "ms":
        return 100.0 * (1.0 - new / base)
    return 100.0 * (new / base - 1.0)


# ---------------------------------------------------------------------------
# Pairwise deltas.
# ---------------------------------------------------------------------------
@dataclass
class PairDeltas:
    """Cell-matched comparison of ``better`` against ``baseline``."""

    better: str
    baseline: str
    #: One row per matched cell: mix/seed/horizon plus, per metric, the
    #: two raw values and the signed gain (positive = ``better`` wins).
    cells: List[Dict[str, object]] = field(default_factory=list)
    #: Cells present for only one side, by approach name.
    unmatched: Dict[str, int] = field(default_factory=dict)

    @property
    def matched(self) -> int:
        return len(self.cells)

    def gains(self, metric: str) -> List[float]:
        return [float(c[f"{metric}_gain_pct"]) for c in self.cells]

    def summary_gain(self, metric: str) -> float:
        """Overall gain from the geomean of per-cell metric ratios."""
        ratios = [
            float(c[f"{metric}_{self.better}"])
            / float(c[f"{metric}_{self.baseline}"])
            for c in self.cells
        ]
        g = geomean(ratios)
        return 100.0 * (1.0 - g) if metric == "ms" else 100.0 * (g - 1.0)

    def per_mix_gains(self, metric: str) -> Dict[str, float]:
        """Gain per mix, geomean-aggregated across seeds/horizons."""
        by_mix: Dict[str, List[Tuple[float, float]]] = {}
        for cell in self.cells:
            by_mix.setdefault(str(cell["mix"]), []).append(
                (
                    float(cell[f"{metric}_{self.better}"]),
                    float(cell[f"{metric}_{self.baseline}"]),
                )
            )
        out: Dict[str, float] = {}
        for mix, pairs in sorted(by_mix.items()):
            g = geomean([new / base for new, base in pairs])
            out[mix] = 100.0 * (1.0 - g) if metric == "ms" else 100.0 * (g - 1.0)
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "better": self.better,
            "baseline": self.baseline,
            "matched_cells": self.matched,
            "unmatched": dict(self.unmatched),
            "summary_gains_pct": {
                metric: round(self.summary_gain(metric), 4)
                for metric in METRICS
            }
            if self.cells
            else {},
            "per_mix_gains_pct": {
                metric: {
                    mix: round(g, 4)
                    for mix, g in self.per_mix_gains(metric).items()
                }
                for metric in METRICS
            }
            if self.cells
            else {},
            "cells": list(self.cells),
        }


def pair_deltas(
    index: ResultIndex,
    better: str,
    baseline: str,
    *,
    mix: Optional[str] = None,
    seed: Optional[int] = None,
    horizon: Optional[int] = None,
) -> PairDeltas:
    """Per-cell WS/HS/MS deltas of ``better`` over ``baseline``."""
    if better == baseline:
        raise ResultsError("a pair needs two distinct approaches")
    sides = {}
    for name in (better, baseline):
        sides[name] = {
            _cell_key(r): r
            for r in index.rows(
                approach=name, mix=mix, seed=seed, horizon=horizon
            )
        }
    out = PairDeltas(better=better, baseline=baseline)
    common = sorted(
        set(sides[better]) & set(sides[baseline]),
        key=lambda k: (k[0], str(k[1]), str(k[2])),
    )
    for name in (better, baseline):
        extra = len(sides[name]) - len(common)
        if extra:
            out.unmatched[name] = extra
    for key in common:
        a, b = sides[better][key], sides[baseline][key]
        cell: Dict[str, object] = {
            "mix": key[0],
            "seed": key[1],
            "horizon": key[2],
            "target_insts": key[3],
            "category": a.get("category"),
        }
        for metric in METRICS:
            new, base = float(a[metric]), float(b[metric])
            cell[f"{metric}_{better}"] = new
            cell[f"{metric}_{baseline}"] = base
            cell[f"{metric}_gain_pct"] = gain_pct(new, base, metric=metric)
        out.cells.append(cell)
    return out


def render_pair_deltas(deltas: PairDeltas) -> str:
    """The pairwise view as a per-mix text table plus a summary line."""
    if not deltas.cells:
        return (
            f"no matched cells for {deltas.better} vs {deltas.baseline} "
            f"(unmatched: {deltas.unmatched or 'none'})"
        )
    per_mix = {
        metric: deltas.per_mix_gains(metric) for metric in METRICS
    }
    rows = [
        [
            mix,
            round(per_mix["ws"][mix], 2),
            round(per_mix["hs"][mix], 2),
            round(per_mix["ms"][mix], 2),
        ]
        for mix in per_mix["ws"]
    ]
    rows.append(
        [
            "gmean",
            round(deltas.summary_gain("ws"), 2),
            round(deltas.summary_gain("hs"), 2),
            round(deltas.summary_gain("ms"), 2),
        ]
    )
    table = render_table(
        ["mix", "WS gain %", "HS gain %", "MS reduction %"], rows
    )
    return (
        f"{deltas.better} vs {deltas.baseline} "
        f"({deltas.matched} matched cell(s))\n{table}"
    )


# ---------------------------------------------------------------------------
# Rollups.
# ---------------------------------------------------------------------------
def _rollup(rows: List[Dict[str, object]]) -> Dict[str, object]:
    out: Dict[str, object] = {
        "runs": len(rows),
        "mixes": sorted({str(r["mix"]) for r in rows}),
        "seeds": sorted({r["seed"] for r in rows if r["seed"] is not None}),
    }
    for metric in METRICS:
        values = [float(r[metric]) for r in rows]
        out[metric] = {
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "geomean": geomean(values),
        }
    return out


def approach_rollup(
    index: ResultIndex,
    approaches: Optional[Sequence[str]] = None,
    *,
    horizon: Optional[int] = None,
) -> Dict[str, Dict[str, object]]:
    """Per-approach WS/HS/MS aggregates across every matching run."""
    names = list(approaches) if approaches else index.approaches()
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        rows = index.rows(approach=name, horizon=horizon)
        if rows:
            out[name] = _rollup(rows)
    return out


def intensity_breakdown(
    index: ResultIndex,
    approaches: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Rollups per (intensity category, approach).

    Uncategorized mixes (ad-hoc app lists, unknown registry state) group
    under ``"?"`` rather than disappearing.
    """
    names = list(approaches) if approaches else index.approaches()
    by_category: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for name in names:
        for row in index.rows(approach=name):
            category = str(row.get("category") or "?")
            by_category.setdefault(category, {}).setdefault(
                name, []
            ).append(row)
    return {
        category: {
            name: _rollup(rows) for name, rows in sorted(groups.items())
        }
        for category, groups in sorted(by_category.items())
    }


def render_rollup(rollup: Dict[str, Dict[str, object]]) -> str:
    rows = []
    for name, agg in rollup.items():
        rows.append(
            [
                name,
                agg["runs"],
                round(agg["ws"]["geomean"], 3),
                round(agg["ws"]["min"], 3),
                round(agg["ws"]["max"], 3),
                round(agg["hs"]["geomean"], 3),
                round(agg["ms"]["geomean"], 3),
                round(agg["ms"]["max"], 3),
            ]
        )
    return render_table(
        [
            "approach", "runs", "WS gmean", "WS min", "WS max",
            "HS gmean", "MS gmean", "MS max",
        ],
        rows,
    )


def render_intensity(
    breakdown: Dict[str, Dict[str, Dict[str, object]]]
) -> str:
    parts = []
    for category, groups in breakdown.items():
        parts.append(f"[{category}]")
        parts.append(render_rollup(groups))
    return "\n".join(parts)
