"""Tuning reports: trial tables and the WS-vs-MS Pareto frontier.

The frontier is the point of the whole subsystem: it renders every
scored trial of a study in the (weighted speedup ↑, maximum
slowdown ↓) plane, marks the non-dominated set, and states **explicitly**
whether any tuned point Pareto-dominates the paper-default baseline —
"no dominating point found" is a first-class result, never a silent
success.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "dominates",
    "pareto_front",
    "frontier_doc",
    "render_trials",
    "render_studies",
    "render_frontier",
]


def _scored(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    return [
        row
        for row in rows
        if row.get("ws") is not None and row.get("ms") is not None
    ]


def dominates(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """True when ``a`` is at least as good as ``b`` on WS (higher) and MS
    (lower), and strictly better on at least one."""
    ws_a, ms_a = float(a["ws"]), float(a["ms"])
    ws_b, ms_b = float(b["ws"]), float(b["ms"])
    return (
        ws_a >= ws_b
        and ms_a <= ms_b
        and (ws_a > ws_b or ms_a < ms_b)
    )


def pareto_front(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """The non-dominated subset of ``rows`` (WS maximized, MS minimized)."""
    scored = _scored(rows)
    return [
        row
        for row in scored
        if not any(dominates(other, row) for other in scored if other is not row)
    ]


def _is_default(row: Dict[str, object]) -> bool:
    return not row.get("params")


def frontier_doc(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Machine-readable frontier report for one study's trial rows."""
    candidates = _scored(rows)
    front = pareto_front(candidates)
    default = next((row for row in candidates if _is_default(row)), None)
    tuned = [row for row in candidates if not _is_default(row)]
    dominating = (
        [row for row in tuned if dominates(row, default)]
        if default is not None
        else []
    )
    return {
        "trials": len(list(rows)),
        "evaluated": len(candidates),
        "points": [_point_doc(row, front, default) for row in candidates],
        "default": _point_doc(default, front, default) if default else None,
        "dominating": [_point_doc(row, front, default) for row in dominating],
        "verdict": _verdict(default, dominating),
    }


def _point_doc(
    row: Optional[Dict[str, object]],
    front: Sequence[Dict[str, object]],
    default: Optional[Dict[str, object]],
) -> Dict[str, object]:
    assert row is not None
    return {
        "trial_id": row.get("trial_id"),
        "approach": row.get("approach"),
        "params": row.get("params") or {},
        "ws": row.get("ws"),
        "ms": row.get("ms"),
        "hs": row.get("hs"),
        "score": row.get("score"),
        "on_front": any(other is row for other in front),
        "is_default": _is_default(row),
        "dominates_default": (
            default is not None and not _is_default(row)
            and dominates(row, default)
        ),
    }


def _verdict(
    default: Optional[Dict[str, object]],
    dominating: Sequence[Dict[str, object]],
) -> str:
    if default is None:
        return (
            "no paper-default baseline trial recorded — run the study with "
            "its default point to compare"
        )
    if dominating:
        best = max(dominating, key=lambda r: float(r["ws"]))
        return (
            f"{len(dominating)} tuned point(s) Pareto-dominate the paper "
            f"default (best: {best['approach']}, "
            f"WS {float(best['ws']):.3f} vs {float(default['ws']):.3f}, "
            f"MS {float(best['ms']):.3f} vs {float(default['ms']):.3f})"
        )
    return (
        "no tuned point Pareto-dominates the paper default on this mix set "
        "— the default is on the frontier"
    )


# ----------------------------------------------------------------------
# Renderers

def _params_text(params: Dict[str, object], width: int = 44) -> str:
    if not params:
        return "(paper defaults)"
    text = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return text if len(text) <= width else text[: width - 1] + "…"

def render_trials(rows: Sequence[Dict[str, object]]) -> str:
    """One line per trial, best score first within each study."""
    if not rows:
        return "no tuning trials recorded"
    lines = [
        f"{'trial':>5} {'WS':>7} {'MS':>7} {'HS':>7} {'score':>8} "
        f"{'runs':>9}  params"
    ]
    ordered = sorted(
        rows,
        key=lambda r: (
            str(r.get("study")),
            r.get("score") is None,
            -(float(r["score"]) if r.get("score") is not None else 0.0),
            int(r.get("trial_id") or 0),
        ),
    )
    for row in ordered:
        def num(name: str) -> str:
            value = row.get(name)
            return f"{float(value):.3f}" if value is not None else "-"

        runs = f"{row.get('cached', 0)}c/{row.get('executed', 0)}x"
        if row.get("status") == "failed":
            score_text = "FAILED"
        else:
            value = row.get("score")
            score_text = f"{float(value):.4f}" if value is not None else "-"
        lines.append(
            f"{row.get('trial_id', '?'):>5} {num('ws'):>7} {num('ms'):>7} "
            f"{num('hs'):>7} {score_text:>8} {runs:>9}  "
            f"{_params_text(row.get('params') or {})}"
        )
    return "\n".join(lines)


def render_studies(rows: Sequence[Dict[str, object]]) -> str:
    if not rows:
        return "no tuning studies recorded"
    lines = [
        f"{'study':<36} {'strategy':<8} {'objective':<9} {'trials':>6} "
        f"{'best':>8} {'cached':>6}"
    ]
    for row in rows:
        best = row.get("best_score")
        best_text = f"{float(best):.4f}" if best is not None else "-"
        lines.append(
            f"{str(row['study']):<36} {str(row['strategy']):<8} "
            f"{str(row['objective']):<9} {int(row['trials']):>6} "
            f"{best_text:>8} {int(row.get('cached') or 0):>6}"
        )
    return "\n".join(lines)


def render_frontier(rows: Sequence[Dict[str, object]]) -> str:
    """The WS-vs-MS frontier table plus the explicit dominance verdict."""
    doc = frontier_doc(rows)
    if not doc["evaluated"]:
        return "no evaluated trials to build a frontier from"
    lines = [
        f"Pareto frontier (WS ↑ vs MS ↓) over {doc['evaluated']} point(s):",
        f"{'':>2} {'trial':>5} {'WS':>7} {'MS':>7} {'HS':>7}  point",
    ]
    points = sorted(
        doc["points"], key=lambda p: (-float(p["ws"]), float(p["ms"]))
    )
    for point in points:
        marker = "*" if point["on_front"] else " "
        label = (
            "paper default"
            if point["is_default"]
            else _params_text(point["params"], width=52)
        )
        if point["dominates_default"]:
            label += "  [dominates default]"
        lines.append(
            f"{marker:>2} {point['trial_id']:>5} {float(point['ws']):>7.3f} "
            f"{float(point['ms']):>7.3f} {float(point['hs']):>7.3f}  {label}"
        )
    lines.append("")
    lines.append(f"verdict: {doc['verdict']}")
    return "\n".join(lines)
