"""Tuning-trial persistence: the ``tuning_trials`` table in the index.

The table lives inside the result service's SQLite index
(``index.sqlite`` beside the blob store) under its **own** schema-version
meta key (:meth:`~repro.results.db.ResultIndex.ensure_table`), so the
``runs`` schema is untouched and a tuner layout change rebuilds only this
table. Rows key on (study, trial_id) and every write is an idempotent
upsert — re-running a seeded study rewrites the same rows, which is what
makes studies resumable and re-renderable offline (``repro-dbp tune
report|frontier`` read only this table).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..results.db import ResultIndex

__all__ = [
    "TUNER_SCHEMA_VERSION",
    "ensure_tuner_schema",
    "record_trial",
    "trial_rows",
    "studies",
]

#: Version of the tuner tables only; bumping rebuilds them without
#: disturbing the ``runs`` table.
TUNER_SCHEMA_VERSION = 1

_TUNER_CREATE = """
CREATE TABLE IF NOT EXISTS tuning_trials (
    study TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    strategy TEXT NOT NULL,
    objective TEXT NOT NULL,
    base_approach TEXT NOT NULL,
    approach TEXT NOT NULL,
    params TEXT NOT NULL,
    mixes TEXT NOT NULL,
    seed INTEGER,
    fidelity REAL,
    rung INTEGER,
    horizon INTEGER,
    ws REAL,
    ms REAL,
    hs REAL,
    score REAL,
    status TEXT,
    error TEXT,
    cached INTEGER,
    executed INTEGER,
    wall_clock REAL,
    PRIMARY KEY (study, trial_id)
);
CREATE INDEX IF NOT EXISTS trials_by_study ON tuning_trials (study, score);
"""

_COLUMNS = (
    "study", "trial_id", "strategy", "objective", "base_approach",
    "approach", "params", "mixes", "seed", "fidelity", "rung", "horizon",
    "ws", "ms", "hs", "score", "status", "error", "cached", "executed",
    "wall_clock",
)


def ensure_tuner_schema(index: ResultIndex) -> None:
    """Create (or version-rebuild) the tuner tables in an index."""
    index.ensure_table(
        "tuning_trials", _TUNER_CREATE, "tuner_schema_version",
        TUNER_SCHEMA_VERSION,
    )


def record_trial(index: ResultIndex, row: Dict[str, object]) -> None:
    """Idempotently upsert one trial row (keyed by study + trial_id)."""
    ensure_tuner_schema(index)
    doc = dict(row)
    for name in ("params", "mixes"):
        if not isinstance(doc.get(name), str):
            doc[name] = json.dumps(doc.get(name), sort_keys=True)
    values = tuple(doc.get(name) for name in _COLUMNS)
    assignments = ", ".join(
        f"{name}=excluded.{name}"
        for name in _COLUMNS
        if name not in ("study", "trial_id")
    )
    conn = index._conn
    with conn:
        conn.execute(
            f"INSERT INTO tuning_trials ({', '.join(_COLUMNS)}) "
            f"VALUES ({', '.join('?' for _ in _COLUMNS)}) "
            f"ON CONFLICT(study, trial_id) DO UPDATE SET {assignments}",
            values,
        )


def trial_rows(
    index: ResultIndex, study: Optional[str] = None
) -> List[Dict[str, object]]:
    """Trial rows (params/mixes decoded), ordered by study then trial."""
    ensure_tuner_schema(index)
    clauses = ""
    params: List[object] = []
    if study is not None:
        clauses = " WHERE study=?"
        params.append(study)
    cursor = index._conn.execute(
        f"SELECT * FROM tuning_trials{clauses} ORDER BY study, trial_id",
        params,
    )
    out = []
    for raw in cursor:
        row = dict(raw)
        row["params"] = json.loads(row["params"]) if row["params"] else {}
        row["mixes"] = json.loads(row["mixes"]) if row["mixes"] else []
        out.append(row)
    return out


def studies(index: ResultIndex) -> List[Dict[str, object]]:
    """One summary row per recorded study (for ``tune report``)."""
    ensure_tuner_schema(index)
    cursor = index._conn.execute(
        "SELECT study, strategy, objective, base_approach, "
        "COUNT(*) AS trials, "
        "MAX(CASE WHEN fidelity >= 1.0 THEN score END) AS best_score, "
        "SUM(cached) AS cached, SUM(executed) AS executed "
        "FROM tuning_trials GROUP BY study ORDER BY study"
    )
    return [dict(row) for row in cursor]
