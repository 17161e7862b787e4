"""Tuning studies as store documents.

A study is one document, ``<store>/studies/<study>/study.json``, written
through :func:`repro.artefact.write_json`. :func:`~repro.tuner.api.run_study`
rewrites it after every trial, so a killed study keeps the trials it
finished, and a run under an existing name replaces that name's document.
Three path levels keep it out of the two-level ``*/*.json`` entry glob,
so the run index and every results view never see it. ``tune
report|frontier`` read these documents and nothing else: deleting or
rebuilding ``index.sqlite`` loses no study.

A document carries ``STORE_VERSION``, like store entries and alone
records; a torn or foreign-version one is a :class:`ConfigError` naming
its path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from ..artefact import Corrupt, Stale, read_json, write_json
from ..campaign.store import STORE_VERSION, STUDY_GLOB
from ..errors import ConfigError

__all__ = ["study_path", "study_summaries", "trial_rows", "write_study"]

#: One trial row: the study's header merged into the trial, in the order
#: reports print it.
_ROW_FIELDS = (
    "study", "trial_id", "strategy", "objective", "base_approach",
    "approach", "params", "mixes", "seed", "horizon", "ws", "ms", "hs",
    "score", "status", "error", "cached", "executed", "wall_clock",
)


def study_path(root, study: str) -> Path:
    """Where ``study``'s document lives in the store at ``root``. The name
    comes from the command line, so it must be one plain path component."""
    if study in ("", ".", "..") or Path(study).name != study:
        raise ConfigError(
            f"study name must be one plain path component, got {study!r}"
        )
    return Path(root) / "studies" / study / "study.json"


def write_study(root, doc: Dict[str, object]) -> Path:
    """Atomically replace the document of the study ``doc`` names."""
    path = study_path(root, str(doc["study"]))
    return write_json(path, {**doc, "version": STORE_VERSION})


def _read(path: Path) -> Dict[str, object]:
    try:
        doc = read_json(path, STORE_VERSION, kind="study document")
    except (Corrupt, Stale) as error:
        raise ConfigError(str(error)) from None
    trials = doc.get("trials")
    if not isinstance(trials, list) or not all(
        isinstance(trial, dict) for trial in trials
    ):
        raise ConfigError(f"corrupt study document {path}: no trials list")
    return doc


def _rows(doc: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for trial in doc["trials"]:
        merged = {**doc, **trial}
        rows.append({name: merged.get(name) for name in _ROW_FIELDS})
    return rows


def trial_rows(root, study: str) -> List[Dict[str, object]]:
    """``study``'s trial rows in trial order; none if it never ran."""
    path = study_path(root, study)
    return _rows(_read(path)) if path.exists() else []


def study_summaries(root) -> List[Dict[str, object]]:
    """One summary row per recorded study, by name (for ``tune report``)."""
    summary = []
    names = sorted(path.parent.name for path in Path(root).glob(STUDY_GLOB))
    for name in names:
        doc = _read(study_path(root, name))
        rows = _rows(doc)
        scores = [row["score"] for row in rows if row["score"] is not None]
        summary.append({
            "study": name,
            "strategy": doc.get("strategy"),
            "objective": doc.get("objective"),
            "base_approach": doc.get("base_approach"),
            "trials": len(rows),
            "best_score": max(scores) if scores else None,
            "cached": sum(row["cached"] or 0 for row in rows),
            "executed": sum(row["executed"] or 0 for row in rows),
        })
    return summary
