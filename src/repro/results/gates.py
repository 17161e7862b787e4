"""Declarative acceptance gates for the paper's headline claims.

EXPERIMENTS.md "Headline claims" names three shape claims:

* **C1** — DBP vs EBP: higher weighted speedup, lower maximum slowdown;
* **C2** — DBP-TCM vs TCM: lower maximum slowdown without giving up
  meaningful throughput;
* **C3** — DBP-TCM vs MCP: higher weighted speedup *and* lower maximum
  slowdown, with effect sizes ordered above C1/C2's.

A gate turns one such sentence into a machine-checkable predicate over
the derived views. Two predicate kinds form the grammar:

* :class:`DeltaGate` — "``better`` beats ``baseline`` on ``metric`` by at
  least ``min_gain_pct``", at one of three scopes: ``gmean`` (the
  geomean over all matched cells), ``per_mix`` (every mix, seeds
  geomean-aggregated), or ``per_cell`` (every single (mix, seed,
  horizon) cell — e.g. "DBP beats EBP on MS for every seed");
* :class:`OrderingGate` — "the ``hi`` pair's gmean gain on ``metric`` is
  at least the ``lo`` pair's" (a magnitude ordering, e.g. C3's WS gain
  exceeding C1's).

Positive gains always mean "better" (WS/HS: percent increase; MS:
percent reduction — see :func:`repro.results.views.gain_pct`). A gate
whose approaches have no matched cells in the index reports ``skipped``
rather than failing, so a campaign that only ran the C1 grid can still
gate on C1; ``--strict`` callers may treat skips as failures.

Gates are data: :func:`gate_from_dict`/:func:`gate_to_dict` round-trip
them through JSON, so a project can keep custom gate files next to its
campaigns and evaluate them with ``repro-dbp results gates --gates-file``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..experiments.report import render_table
from .db import ResultIndex, ResultsError
from .views import PairDeltas, pair_deltas

#: Valid DeltaGate scopes.
SCOPES = ("gmean", "per_mix", "per_cell")


@dataclass(frozen=True)
class DeltaGate:
    """``better`` must beat ``baseline`` on ``metric`` at ``scope``."""

    name: str
    claim: str
    metric: str  # "ws" | "hs" | "ms"
    better: str
    baseline: str
    scope: str = "gmean"
    #: The gain must strictly exceed this (percent). 0.0 = "must win";
    #: negative values express a floor ("loses at most that much").
    min_gain_pct: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ResultsError(
                f"gate {self.name!r}: unknown scope {self.scope!r} "
                f"(valid: {', '.join(SCOPES)})"
            )
        if self.metric not in ("ws", "hs", "ms"):
            raise ResultsError(
                f"gate {self.name!r}: unknown metric {self.metric!r}"
            )


@dataclass(frozen=True)
class OrderingGate:
    """The ``hi`` pair's gmean gain must be >= the ``lo`` pair's."""

    name: str
    claim: str
    metric: str
    hi: Tuple[str, str]  # (better, baseline)
    lo: Tuple[str, str]
    description: str = ""

    def __post_init__(self) -> None:
        if self.metric not in ("ws", "hs", "ms"):
            raise ResultsError(
                f"gate {self.name!r}: unknown metric {self.metric!r}"
            )


Gate = Union[DeltaGate, OrderingGate]


#: The built-in gates: C1-C3 exactly as the benchmark suite asserts them
#: (bench_f2/f3/f4), so `results gates` and `pytest benchmarks/` enforce
#: one set of shape predicates. C2's throughput bound is a floor, not a
#: win — the paper trades a little WS for the fairness gain there.
PAPER_GATES: Tuple[Gate, ...] = (
    DeltaGate(
        "c1-throughput", "C1", "ws", "dbp", "ebp",
        description="DBP beats EBP on gmean weighted speedup",
    ),
    DeltaGate(
        "c1-fairness", "C1", "ms", "dbp", "ebp",
        description="DBP reduces gmean maximum slowdown vs EBP",
    ),
    DeltaGate(
        "c2-fairness", "C2", "ms", "dbp-tcm", "tcm",
        description="DBP-TCM reduces gmean maximum slowdown vs TCM",
    ),
    DeltaGate(
        "c2-throughput-floor", "C2", "ws", "dbp-tcm", "tcm",
        min_gain_pct=-2.0,
        description="DBP-TCM gives up at most 2% gmean WS vs TCM",
    ),
    DeltaGate(
        "c3-throughput", "C3", "ws", "dbp-tcm", "mcp",
        description="DBP-TCM beats MCP on gmean weighted speedup",
    ),
    DeltaGate(
        "c3-fairness", "C3", "ms", "dbp-tcm", "mcp",
        description="DBP-TCM reduces gmean maximum slowdown vs MCP",
    ),
    OrderingGate(
        "c3-over-c1-throughput", "C3", "ws",
        hi=("dbp-tcm", "mcp"), lo=("dbp", "ebp"),
        description="C3's WS gain is at least C1's",
    ),
    OrderingGate(
        "c3-over-c2-fairness", "C3", "ms",
        hi=("dbp-tcm", "mcp"), lo=("dbp-tcm", "tcm"),
        description="C3's fairness gain is at least C2's",
    ),
)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------
@dataclass
class GateCheck:
    """One gate's verdict against one index."""

    gate: Gate
    status: str  # "pass" | "fail" | "skipped"
    reason: str = ""
    observed: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "gate": gate_to_dict(self.gate),
            "status": self.status,
            "reason": self.reason,
            "observed": dict(self.observed),
        }


@dataclass
class GatesReport:
    """Every gate's verdict, plus the overall pass/fail."""

    checks: List[GateCheck] = field(default_factory=list)

    def with_status(self, status: str) -> List[GateCheck]:
        return [c for c in self.checks if c.status == status]

    @property
    def failed(self) -> List[GateCheck]:
        return self.with_status("fail")

    @property
    def skipped(self) -> List[GateCheck]:
        return self.with_status("skipped")

    def ok(self, *, strict: bool = False) -> bool:
        """True when no gate failed (and, with ``strict``, none skipped)."""
        if self.failed:
            return False
        return not (strict and self.skipped)

    def as_dict(self, *, strict: bool = False) -> Dict[str, object]:
        return {
            "passed": self.ok(strict=strict),
            "strict": strict,
            "counts": {
                "pass": len(self.with_status("pass")),
                "fail": len(self.failed),
                "skipped": len(self.skipped),
            },
            "checks": [c.as_dict() for c in self.checks],
        }

    def render(self) -> str:
        rows = []
        for check in self.checks:
            gate = check.gate
            observed = check.observed.get("gain_pct")
            rows.append(
                [
                    gate.claim,
                    gate.name,
                    _requirement(gate),
                    "-" if observed is None else f"{observed:+.2f}",
                    check.status.upper(),
                ]
            )
        table = render_table(
            ["claim", "gate", "requires", "observed %", "verdict"], rows
        )
        parts = [table]
        for check in self.checks:
            if check.status != "pass" and check.reason:
                parts.append(f"{check.status.upper()} {check.gate.name}: "
                             f"{check.reason}")
        verdict = "PASS" if self.ok() else "FAIL"
        counts = self.as_dict()["counts"]
        parts.append(
            f"gates: {verdict} ({counts['pass']} passed, "
            f"{counts['fail']} failed, {counts['skipped']} skipped)"
        )
        return "\n".join(parts)


def _requirement(gate: Gate) -> str:
    if isinstance(gate, DeltaGate):
        bound = f"> {gate.min_gain_pct:+.1f}%"
        return (
            f"{gate.better} vs {gate.baseline} {gate.metric} "
            f"{bound} [{gate.scope}]"
        )
    return (
        f"{gate.metric}: {gate.hi[0]} vs {gate.hi[1]} >= "
        f"{gate.lo[0]} vs {gate.lo[1]}"
    )


def _check_delta(gate: DeltaGate, deltas: PairDeltas) -> GateCheck:
    if not deltas.cells:
        return GateCheck(
            gate,
            "skipped",
            reason=(
                f"no matched runs for {gate.better} vs {gate.baseline}"
            ),
        )
    overall = deltas.summary_gain(gate.metric)
    observed: Dict[str, object] = {
        "gain_pct": overall,
        "matched_cells": deltas.matched,
        "scope": gate.scope,
    }
    if gate.scope == "gmean":
        worst_label, worst = "gmean", overall
    elif gate.scope == "per_mix":
        per_mix = deltas.per_mix_gains(gate.metric)
        worst_label, worst = min(per_mix.items(), key=lambda kv: kv[1])
        observed["per_mix_gains_pct"] = {
            mix: round(g, 4) for mix, g in per_mix.items()
        }
    else:  # per_cell
        gains = deltas.gains(gate.metric)
        worst_index = min(range(len(gains)), key=gains.__getitem__)
        worst = gains[worst_index]
        cell = deltas.cells[worst_index]
        worst_label = f"{cell['mix']} s{cell['seed']}"
    observed["worst"] = {"where": worst_label, "gain_pct": worst}
    if worst > gate.min_gain_pct:
        return GateCheck(gate, "pass", observed=observed)
    return GateCheck(
        gate,
        "fail",
        reason=(
            f"{gate.metric} gain at {worst_label} is {worst:+.2f}%, "
            f"needs > {gate.min_gain_pct:+.2f}%"
        ),
        observed=observed,
    )


def _check_ordering(
    gate: OrderingGate, hi: PairDeltas, lo: PairDeltas
) -> GateCheck:
    missing = [
        f"{d.better} vs {d.baseline}" for d in (hi, lo) if not d.cells
    ]
    if missing:
        return GateCheck(
            gate, "skipped",
            reason=f"no matched runs for {', '.join(missing)}",
        )
    gain_hi = hi.summary_gain(gate.metric)
    gain_lo = lo.summary_gain(gate.metric)
    observed = {
        "gain_pct": gain_hi - gain_lo,
        "hi_gain_pct": gain_hi,
        "lo_gain_pct": gain_lo,
    }
    if gain_hi >= gain_lo:
        return GateCheck(gate, "pass", observed=observed)
    return GateCheck(
        gate,
        "fail",
        reason=(
            f"{gate.metric} gain ordering violated: "
            f"{gate.hi[0]} vs {gate.hi[1]} = {gain_hi:+.2f}% < "
            f"{gate.lo[0]} vs {gate.lo[1]} = {gain_lo:+.2f}%"
        ),
        observed=observed,
    )


def evaluate_gates(
    index: ResultIndex,
    gates: Sequence[Gate] = PAPER_GATES,
    *,
    claims: Optional[Sequence[str]] = None,
    horizon: Optional[int] = None,
    seed: Optional[int] = None,
) -> GatesReport:
    """Evaluate gates against an index; optionally filter by claim id.

    Pair views are computed once per distinct (better, baseline) pair and
    shared across gates, so evaluating the full built-in set costs three
    index scans, not eight.
    """
    if claims is not None:
        wanted = {c.upper() for c in claims}
        gates = [g for g in gates if g.claim.upper() in wanted]
    pairs: Dict[Tuple[str, str], PairDeltas] = {}

    def pair(better: str, baseline: str) -> PairDeltas:
        key = (better, baseline)
        if key not in pairs:
            pairs[key] = pair_deltas(
                index, better, baseline, horizon=horizon, seed=seed
            )
        return pairs[key]

    report = GatesReport()
    for gate in gates:
        if isinstance(gate, DeltaGate):
            report.checks.append(
                _check_delta(gate, pair(gate.better, gate.baseline))
            )
        else:
            report.checks.append(
                _check_ordering(gate, pair(*gate.hi), pair(*gate.lo))
            )
    return report


# ---------------------------------------------------------------------------
# Gates as data (JSON round-trip).
# ---------------------------------------------------------------------------
def gate_to_dict(gate: Gate) -> Dict[str, object]:
    if isinstance(gate, DeltaGate):
        return {
            "kind": "delta",
            "name": gate.name,
            "claim": gate.claim,
            "metric": gate.metric,
            "better": gate.better,
            "baseline": gate.baseline,
            "scope": gate.scope,
            "min_gain_pct": gate.min_gain_pct,
            "description": gate.description,
        }
    return {
        "kind": "ordering",
        "name": gate.name,
        "claim": gate.claim,
        "metric": gate.metric,
        "hi": list(gate.hi),
        "lo": list(gate.lo),
        "description": gate.description,
    }


def gate_from_dict(doc: Dict[str, object]) -> Gate:
    try:
        kind = doc["kind"]
        if kind == "delta":
            return DeltaGate(
                name=str(doc["name"]),
                claim=str(doc.get("claim", "")),
                metric=str(doc["metric"]),
                better=str(doc["better"]),
                baseline=str(doc["baseline"]),
                scope=str(doc.get("scope", "gmean")),
                min_gain_pct=float(doc.get("min_gain_pct", 0.0)),
                description=str(doc.get("description", "")),
            )
        if kind == "ordering":
            hi, lo = doc["hi"], doc["lo"]
            return OrderingGate(
                name=str(doc["name"]),
                claim=str(doc.get("claim", "")),
                metric=str(doc["metric"]),
                hi=(str(hi[0]), str(hi[1])),
                lo=(str(lo[0]), str(lo[1])),
                description=str(doc.get("description", "")),
            )
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise ResultsError(f"malformed gate definition: {error}") from None
    raise ResultsError(f"unknown gate kind {kind!r}")


def load_gates_file(path) -> List[Gate]:
    """Gates from a JSON file: either a list or ``{"gates": [...]}``."""
    try:
        doc = json.loads(open(path).read())
    except (OSError, ValueError) as error:
        raise ResultsError(f"cannot read gates file {path}: {error}")
    gates = doc.get("gates") if isinstance(doc, dict) else doc
    if not isinstance(gates, list) or not gates:
        raise ResultsError(
            f"gates file {path} holds no gate list"
        )
    return [gate_from_dict(g) for g in gates]
