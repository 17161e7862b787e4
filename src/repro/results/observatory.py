"""The perf-regression observatory: benchmark trajectories in the index.

A benchmark script run with ``--record`` (``scripts/bench_tuner.py``)
appends one dated entry to its ``benchmarks/BENCH_*.json``.  Those
snapshots are append-only JSON — fine as the source of truth, useless
for queries.  This module ingests every ``BENCH_*.json`` under a
benchmark directory into additive tables inside the result-service
SQLite index (the ``runs`` schema and ``SCHEMA_VERSION`` are untouched;
the bench tables carry their own meta key), renders the throughput
trajectory, and flags regressions:

* **ratio regressions** — an entry whose ``speedup_vs_baseline`` fell
  below the snapshot's committed CI gate (``ci.min_ratio``).  The ratio
  compares two measurements from the *same* host and run, so this check
  is host-independent.
* **trajectory regressions** — a dated entry whose best throughput
  dropped more than ``tolerance`` below the best earlier entry.
  Absolute cycles/sec only compare within one host class, so this is a
  warning-grade signal on shared runners and a hard gate on pinned
  ones.

``repro-dbp results perf-trend`` drives all three steps and exits
nonzero under ``--check`` when any regression is flagged (the CI hook).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .db import ResultIndex, ResultsError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSample",
    "RegressionFinding",
    "bench_samples_from_doc",
    "load_bench_docs",
    "sync_bench_dir",
    "bench_trend",
    "check_bench_docs",
    "render_trend",
    "render_findings",
]

#: Version of the *bench* tables only; bumping rebuilds them from the
#: JSON snapshots without disturbing the ``runs`` table.
BENCH_SCHEMA_VERSION = 1

_BENCH_CREATE = """
CREATE TABLE IF NOT EXISTS bench_samples (
    benchmark TEXT NOT NULL,
    role TEXT NOT NULL,
    date TEXT NOT NULL,
    kernel TEXT,
    cycles_per_sec_best REAL,
    cycles_per_sec_median REAL,
    speedup_vs_baseline REAL,
    engine_events INTEGER,
    source TEXT,
    PRIMARY KEY (benchmark, role, date)
);
"""


@dataclass
class BenchSample:
    """One dated measurement from a benchmark snapshot file."""

    benchmark: str
    role: str  # "baseline" | "post" | "trajectory"
    date: str
    kernel: Optional[str] = None
    cycles_per_sec_best: Optional[float] = None
    cycles_per_sec_median: Optional[float] = None
    speedup_vs_baseline: Optional[float] = None
    engine_events: Optional[int] = None
    source: str = ""

    def to_row(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "role": self.role,
            "date": self.date,
            "kernel": self.kernel,
            "cycles_per_sec_best": self.cycles_per_sec_best,
            "cycles_per_sec_median": self.cycles_per_sec_median,
            "speedup_vs_baseline": self.speedup_vs_baseline,
            "engine_events": self.engine_events,
            "source": self.source,
        }


@dataclass
class RegressionFinding:
    """One flagged regression (or structural problem) in a snapshot."""

    benchmark: str
    kind: str  # "ratio" | "trajectory"
    message: str
    date: Optional[str] = None

    def render(self) -> str:
        when = f" [{self.date}]" if self.date else ""
        return f"REGRESSION {self.benchmark}/{self.kind}{when}: {self.message}"


def _sample(
    benchmark: str, role: str, entry: Dict[str, object], source: str
) -> Optional[BenchSample]:
    date = entry.get("date")
    if not isinstance(date, str) or not date:
        return None
    best = entry.get("cycles_per_sec_best")
    return BenchSample(
        benchmark=benchmark,
        role=role,
        date=date,
        kernel=entry.get("kernel"),
        cycles_per_sec_best=float(best) if best is not None else None,
        cycles_per_sec_median=(
            float(entry["cycles_per_sec_median"])
            if entry.get("cycles_per_sec_median") is not None
            else None
        ),
        speedup_vs_baseline=(
            float(entry["speedup_vs_baseline"])
            if entry.get("speedup_vs_baseline") is not None
            else None
        ),
        engine_events=(
            int(entry["engine_events"])
            if entry.get("engine_events") is not None
            else None
        ),
        source=source,
    )


def bench_samples_from_doc(
    doc: Dict[str, object], source: str = ""
) -> List[BenchSample]:
    """Extract dated samples from one snapshot document.

    Snapshots that carry no dated series (e.g. the one-shot
    ``BENCH_results_index.json`` micro-benchmark) yield no samples —
    they are valid files, just not trajectories.
    """
    benchmark = doc.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        return []
    out: List[BenchSample] = []
    for role in ("baseline", "post"):
        entry = doc.get(role)
        if isinstance(entry, dict):
            sample = _sample(benchmark, role, entry, source)
            if sample is not None:
                out.append(sample)
    trajectory = doc.get("trajectory")
    if isinstance(trajectory, list):
        for entry in trajectory:
            if isinstance(entry, dict):
                sample = _sample(benchmark, "trajectory", entry, source)
                if sample is not None:
                    out.append(sample)
    return out


def load_bench_docs(bench_dir: str) -> Dict[str, Dict[str, object]]:
    """All ``BENCH_*.json`` documents under ``bench_dir``, by path."""
    if not os.path.isdir(bench_dir):
        raise ResultsError(f"no benchmark directory at {bench_dir}")
    docs: Dict[str, Dict[str, object]] = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ResultsError(f"{path}: unreadable snapshot ({error})")
        if isinstance(doc, dict):
            docs[path] = doc
    return docs


def _ensure_bench_schema(index: ResultIndex) -> None:
    conn = index._conn
    with conn:
        conn.executescript(_BENCH_CREATE)
        conn.execute(
            "INSERT OR IGNORE INTO meta (name, value) VALUES (?, ?)",
            ("bench_schema_version", str(BENCH_SCHEMA_VERSION)),
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE name='bench_schema_version'"
        ).fetchone()
        if row["value"] != str(BENCH_SCHEMA_VERSION):
            conn.execute("DROP TABLE IF EXISTS bench_samples")
            conn.executescript(_BENCH_CREATE)
            conn.execute(
                "UPDATE meta SET value=? WHERE name='bench_schema_version'",
                (str(BENCH_SCHEMA_VERSION),),
            )


def sync_bench_dir(index: ResultIndex, bench_dir: str) -> int:
    """Upsert every dated sample under ``bench_dir``; returns the count.

    Idempotent: samples key on (benchmark, role, date), so re-syncing an
    unchanged directory rewrites the same rows.
    """
    docs = load_bench_docs(bench_dir)
    samples: List[BenchSample] = []
    for path, doc in docs.items():
        samples.extend(
            bench_samples_from_doc(doc, source=os.path.basename(path))
        )
    _ensure_bench_schema(index)
    conn = index._conn
    columns = (
        "benchmark", "role", "date", "kernel", "cycles_per_sec_best",
        "cycles_per_sec_median", "speedup_vs_baseline", "engine_events",
        "source",
    )
    assignments = ", ".join(
        f"{name}=excluded.{name}"
        for name in columns
        if name not in ("benchmark", "role", "date")
    )
    with conn:
        for sample in samples:
            row = sample.to_row()
            conn.execute(
                f"INSERT INTO bench_samples ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)}) "
                f"ON CONFLICT(benchmark, role, date) "
                f"DO UPDATE SET {assignments}",
                tuple(row[name] for name in columns),
            )
    return len(samples)


def bench_trend(
    index: ResultIndex, benchmark: Optional[str] = None
) -> List[Dict[str, object]]:
    """Trajectory samples (plus baseline), oldest first."""
    _ensure_bench_schema(index)
    clauses = ["role IN ('baseline', 'trajectory')"]
    params: List[object] = []
    if benchmark is not None:
        clauses.append("benchmark=?")
        params.append(benchmark)
    cursor = index._conn.execute(
        "SELECT * FROM bench_samples WHERE "
        + " AND ".join(clauses)
        + " ORDER BY benchmark, date, role",
        params,
    )
    return [dict(row) for row in cursor]


def check_bench_docs(
    docs: Dict[str, Dict[str, object]], tolerance: float = 0.10
) -> List[RegressionFinding]:
    """Flag regressions in a set of snapshot documents.

    ``tolerance`` is the allowed fractional throughput drop of a
    trajectory entry below the best *earlier* entry before it is
    flagged.
    """
    findings: List[RegressionFinding] = []
    for path, doc in docs.items():
        benchmark = doc.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            continue
        ci = doc.get("ci") if isinstance(doc.get("ci"), dict) else {}
        min_ratio = ci.get("min_ratio")
        trajectory = [
            entry
            for entry in (doc.get("trajectory") or [])
            if isinstance(entry, dict) and entry.get("date")
        ]
        trajectory.sort(key=lambda e: str(e["date"]))
        if min_ratio is not None:
            for entry in trajectory:
                ratio = entry.get("speedup_vs_baseline")
                if ratio is not None and float(ratio) < float(min_ratio):
                    findings.append(
                        RegressionFinding(
                            benchmark=benchmark,
                            kind="ratio",
                            date=str(entry["date"]),
                            message=(
                                f"speedup_vs_baseline {float(ratio):.3f} "
                                f"< ci.min_ratio {float(min_ratio):.2f}"
                            ),
                        )
                    )
        best_so_far: Optional[float] = None
        best_date: Optional[str] = None
        for entry in trajectory:
            best = entry.get("cycles_per_sec_best")
            if best is None:
                continue
            best = float(best)
            if best_so_far is not None:
                floor = best_so_far * (1.0 - tolerance)
                if best < floor:
                    drop = 100.0 * (1.0 - best / best_so_far)
                    findings.append(
                        RegressionFinding(
                            benchmark=benchmark,
                            kind="trajectory",
                            date=str(entry["date"]),
                            message=(
                                f"throughput {best:,.1f} is {drop:.1f}% "
                                f"below the {best_date} best "
                                f"({best_so_far:,.1f}); tolerance is "
                                f"{100 * tolerance:.0f}% "
                                f"(same-host comparison)"
                            ),
                        )
                    )
            if best_so_far is None or best > best_so_far:
                best_so_far = best
                best_date = str(entry["date"])
    return findings


def render_trend(rows: Sequence[Dict[str, object]]) -> str:
    """The trajectory as an aligned table (one line per dated sample)."""
    if not rows:
        return "no benchmark samples indexed"
    lines = [
        f"{'benchmark':<18} {'date':<12} {'role':<10} {'kernel':<12} "
        f"{'cycles/sec':>12} {'ratio':>7}"
    ]
    for row in rows:
        best = row.get("cycles_per_sec_best")
        ratio = row.get("speedup_vs_baseline")
        best_text = f"{best:,.1f}" if best is not None else "-"
        ratio_text = f"{ratio:.3f}" if ratio is not None else "-"
        lines.append(
            f"{str(row['benchmark']):<18} {str(row['date']):<12} "
            f"{str(row['role']):<10} {str(row.get('kernel') or '-'):<12} "
            f"{best_text:>12} {ratio_text:>7}"
        )
    return "\n".join(lines)


def render_findings(findings: Sequence[RegressionFinding]) -> str:
    if not findings:
        return "perf observatory: no regressions flagged"
    return "\n".join(finding.render() for finding in findings)
