"""SQLite index over the content-addressed result store.

The blob store (:mod:`repro.campaign.store`) stays the source of truth —
one JSON entry per run, addressed by the SHA-256 of the run's input
closure. This module maintains a *derived* SQLite index beside it
(``<store>/index.sqlite`` by default) so campaigns, views, diffs, and
acceptance gates can query thousands of runs without re-reading every
blob:

* one row per store entry: the run key, the spec fields a query filters on
  (mix, approach, resolved policy/scheduler, seed, horizon, instruction
  budget), the headline metrics (WS/HS/MS), workload shape (core count,
  intensive-app count, mix category), trace digests, and the blob's mtime;
* **incremental sync** — :meth:`ResultIndex.sync` scans the blob directory
  and upserts only entries whose mtime changed, so re-indexing an
  unchanged store touches zero rows and pruning follows deletions;
* **multi-process safety** — WAL journal mode, a generous busy timeout,
  and idempotent ``INSERT .. ON CONFLICT(key) DO UPDATE`` upserts let
  several campaign hosts (and the store's own put-time hook) share one
  index file without lost or duplicated rows.

Rows are plain dicts throughout; the derived views in
:mod:`repro.results.views` and the gates in :mod:`repro.results.gates`
build on :meth:`ResultIndex.rows`.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..artefact import Stale, read_json
from ..campaign.store import STORE_VERSION, ResultStore, entry_doc
from ..core.integration import get_approach
from ..errors import ConfigError, ReproError
from ..workloads.mixes import MIXES
from ..workloads.profiles import app_intensive

#: Bump when the ``runs`` table layout changes; a mismatched index file is
#: dropped and rebuilt from the blobs (the blobs are the source of truth,
#: so rebuilding loses nothing).
SCHEMA_VERSION = 1

#: The index file maintained inside a store directory.
INDEX_FILENAME = "index.sqlite"

_COLUMNS = (
    "key", "version", "mix", "approach", "policy", "scheduler", "apps",
    "seed", "horizon", "target_insts", "num_cores", "intensive_count",
    "category", "ws", "hs", "ms", "wall_clock", "trace_digests", "mtime",
    "source",
)

_CREATE = f"""
CREATE TABLE IF NOT EXISTS runs (
    key TEXT PRIMARY KEY,
    version INTEGER NOT NULL,
    mix TEXT,
    approach TEXT,
    policy TEXT,
    scheduler TEXT,
    apps TEXT,
    seed INTEGER,
    horizon INTEGER,
    target_insts INTEGER,
    num_cores INTEGER,
    intensive_count INTEGER,
    category TEXT,
    ws REAL,
    hs REAL,
    ms REAL,
    wall_clock REAL,
    trace_digests TEXT,
    mtime REAL,
    source TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_grid ON runs (mix, approach, seed);
CREATE INDEX IF NOT EXISTS runs_by_approach ON runs (approach);
CREATE TABLE IF NOT EXISTS meta (name TEXT PRIMARY KEY, value TEXT);
"""


class ResultsError(ReproError):
    """The result index/views/gates layer hit an invalid input or state."""


def index_path_for(store_root) -> Path:
    """Where a store directory's index file lives."""
    return Path(store_root) / INDEX_FILENAME


@dataclass
class SyncReport:
    """What one :meth:`ResultIndex.sync` pass did."""

    scanned: int = 0
    added: int = 0
    updated: int = 0
    unchanged: int = 0
    removed: int = 0
    #: Entries whose doc version differs from the current STORE_VERSION.
    #: Indexed anyway (queries filter on version) but worth surfacing.
    stale: int = 0
    malformed: int = 0
    malformed_paths: List[str] = field(default_factory=list)

    @property
    def changed(self) -> int:
        return self.added + self.updated + self.removed

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        line = (
            f"indexed {self.scanned} entr{'y' if self.scanned == 1 else 'ies'}: "
            f"{self.added} added, {self.updated} updated, "
            f"{self.unchanged} unchanged, {self.removed} removed"
        )
        if self.stale:
            line += f", {self.stale} stale-version"
        if self.malformed:
            line += f", {self.malformed} malformed (skipped)"
        return line


def row_from_doc(
    doc: Dict[str, object], *, mtime: float = 0.0, source: str = "sync"
) -> Dict[str, object]:
    """One index row from a full store document.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed input —
    callers count those as malformed entries, mirroring the store's own
    decode discipline.
    """
    key = doc["key"]
    if not isinstance(key, str) or not key:
        raise ValueError("store doc has no usable key")
    version = int(doc["version"])
    spec = doc.get("spec") or {}
    if not isinstance(spec, dict):
        raise TypeError("spec must be an object")
    result = doc["result"]
    metrics = result["metrics"]
    summary = metrics["summary"]
    apps = list(metrics.get("apps") or spec.get("apps") or [])
    mix = spec.get("mix") or metrics.get("mix") or "+".join(apps)
    approach = spec.get("approach") or metrics.get("approach")
    if not approach:
        raise ValueError("store doc names no approach")
    row = {
        "key": key,
        "version": version,
        "mix": str(mix),
        "approach": str(approach),
        "policy": None,
        "scheduler": None,
        "apps": json.dumps(apps),
        "seed": _opt_int(spec.get("seed")),
        "horizon": _opt_int(spec.get("horizon")),
        "target_insts": _opt_int(spec.get("target_insts")),
        "num_cores": len(apps) or None,
        "intensive_count": None,
        "category": None,
        "ws": float(summary["weighted_speedup"]),
        "hs": float(summary["harmonic_speedup"]),
        "ms": float(summary["max_slowdown"]),
        "wall_clock": float(doc.get("wall_clock", 0.0)),
        "trace_digests": (
            json.dumps(spec["trace_digests"])
            if spec.get("trace_digests")
            else None
        ),
        "mtime": float(mtime),
        "source": source,
    }
    _annotate_registries(row, apps)
    return row


def _opt_int(value) -> Optional[int]:
    return None if value is None else int(value)


def _annotate_registries(row: Dict[str, object], apps: Sequence[str]) -> None:
    """Fill policy/scheduler/intensity/category from the live registries.

    Best-effort: an entry written by an older or extended code version may
    name approaches, apps, or mixes this process does not know — the row
    still indexes, with those columns NULL.
    """
    try:
        # A tuned ``base@k=v`` name keeps its base's policy and scheduler;
        # looking up the base spares the reader the tunables' classes.
        spec = get_approach(str(row["approach"]).partition("@")[0])
        row["policy"] = spec.policy
        row["scheduler"] = spec.scheduler
    except ConfigError:
        pass
    try:
        row["intensive_count"] = sum(
            1 for app in apps if app_intensive(app)
        )
    except ConfigError:
        pass
    mix = MIXES.get(str(row["mix"]))
    if mix is not None:
        row["category"] = mix.category


class ResultIndex:
    """A queryable SQLite index over store entries.

    ``path`` may be ``":memory:"`` for throwaway indexes (e.g. gating a
    single in-flight campaign without touching disk). File-backed indexes
    are safe to share between processes: every write is an idempotent
    upsert inside SQLite's WAL locking, with ``busy_timeout`` covering
    writer contention.
    """

    def __init__(
        self, path: Union[str, Path] = ":memory:", *, timeout: float = 30.0
    ) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=timeout)
        self._conn.row_factory = sqlite3.Row
        if self.path != ":memory:":
            self._enable_wal(timeout)
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self.ensure_table("runs", _CREATE, "schema_version", SCHEMA_VERSION)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _enable_wal(self, timeout: float) -> None:
        """Switch the file to WAL, waiting out concurrent creators.

        The switch upgrades a shared lock to an exclusive one, and SQLite
        fails that upgrade at once — without consulting the busy handler —
        whenever another connection holds a write lock (waiting could
        deadlock two upgraders). Processes creating one fresh index at the
        same instant hit exactly that, so the wait has to happen here.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)

    def ensure_table(
        self, table: str, create: str, version_key: str, version: int
    ) -> None:
        """Run ``create`` and version ``table`` under its own ``meta`` row.

        A stored version other than ``version`` drops and recreates
        ``table`` alone, so each table's layout changes independently. For
        ``runs`` (whose script also creates ``meta``) that loses nothing:
        the blobs are authoritative and the next sync refills it.
        """
        with self._conn:
            self._conn.executescript(create)
            # OR IGNORE: two processes initializing a fresh index race to
            # write this row; the loser must not crash on the PK.
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (name, value) VALUES (?, ?)",
                (version_key, str(version)),
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name=?", (version_key,)
            ).fetchone()
            if row["value"] != str(version):
                self._conn.execute(f"DROP TABLE IF EXISTS {table}")
                self._conn.executescript(create)
                self._conn.execute(
                    "UPDATE meta SET value=? WHERE name=?",
                    (str(version), version_key),
                )

    # -- writes ---------------------------------------------------------
    def upsert(self, row: Dict[str, object]) -> None:
        """Idempotently insert or refresh one run row (keyed by ``key``)."""
        values = tuple(row[name] for name in _COLUMNS)
        assignments = ", ".join(
            f"{name}=excluded.{name}" for name in _COLUMNS if name != "key"
        )
        with self._conn:
            self._conn.execute(
                f"INSERT INTO runs ({', '.join(_COLUMNS)}) "
                f"VALUES ({', '.join('?' for _ in _COLUMNS)}) "
                f"ON CONFLICT(key) DO UPDATE SET {assignments}",
                values,
            )

    def upsert_doc(
        self, doc: Dict[str, object], *, mtime: float = 0.0,
        source: str = "put",
    ) -> None:
        """Index one full store document (the store's put-time hook)."""
        self.upsert(row_from_doc(doc, mtime=mtime, source=source))

    def remove(self, keys: Iterable[str]) -> int:
        keys = list(keys)
        if not keys:
            return 0
        with self._conn:
            self._conn.executemany(
                "DELETE FROM runs WHERE key=?", [(k,) for k in keys]
            )
        return len(keys)

    # -- sync -----------------------------------------------------------
    def sync(self, store, *, prune: bool = True) -> SyncReport:
        """Bring the index up to date with a blob store directory.

        ``store`` is a :class:`~repro.campaign.store.ResultStore` (or any
        object with ``iter_blobs()``). Entries already indexed at the
        blob's current mtime are skipped without reading the JSON, which
        is what makes a no-change re-sync O(stat). A
        :class:`~repro.artefact.Stale` entry is indexed anyway (queries
        filter on version) and counted; a
        :class:`~repro.artefact.Corrupt` one is counted malformed. With
        ``prune``, rows whose blob disappeared (e.g. a gc) are removed.
        """
        report = SyncReport()
        known = {
            r["key"]: r["mtime"]
            for r in self._conn.execute("SELECT key, mtime FROM runs")
        }
        seen = set()
        for key, path in store.iter_blobs():
            report.scanned += 1
            seen.add(key)
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # raced with a concurrent gc
            if key in known and known[key] == mtime:
                report.unchanged += 1
                continue
            try:
                try:
                    doc = read_json(path, STORE_VERSION, kind="store entry")
                    stale = False
                except Stale as error:
                    doc, stale = error.doc, True
                row = row_from_doc(doc, mtime=mtime, source="sync")
                if doc.get("key") != key:
                    raise ValueError("entry key does not match its path")
            except (ValueError, KeyError, TypeError):  # Corrupt included
                report.malformed += 1
                report.malformed_paths.append(str(path))
                continue
            report.stale += stale
            self.upsert(row)
            if key in known:
                report.updated += 1
            else:
                report.added += 1
        if prune:
            gone = [key for key in known if key not in seen]
            report.removed = self.remove(gone)
        return report

    # -- queries --------------------------------------------------------
    def rows(
        self,
        *,
        mix: Optional[str] = None,
        approach: Optional[str] = None,
        seed: Optional[int] = None,
        horizon: Optional[int] = None,
        version: Optional[int] = None,
        current_version_only: bool = True,
    ) -> List[Dict[str, object]]:
        """Indexed runs matching the filters, as plain dicts.

        By default only rows at the current ``STORE_VERSION`` are
        returned — stale-version rows stay queryable with
        ``current_version_only=False`` (or an explicit ``version``).
        """
        clauses: List[str] = []
        params: List[object] = []
        if version is not None:
            clauses.append("version=?")
            params.append(int(version))
        elif current_version_only:
            clauses.append("version=?")
            params.append(STORE_VERSION)
        for name, value in (
            ("mix", mix), ("approach", approach), ("seed", seed),
            ("horizon", horizon),
        ):
            if value is not None:
                clauses.append(f"{name}=?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cursor = self._conn.execute(
            "SELECT * FROM runs"
            f"{where} ORDER BY mix, approach, seed, horizon, key",
            params,
        )
        return [self._to_dict(r) for r in cursor]

    @staticmethod
    def _to_dict(row: sqlite3.Row) -> Dict[str, object]:
        out = dict(row)
        out["apps"] = json.loads(out["apps"]) if out["apps"] else []
        if out.get("trace_digests"):
            out["trace_digests"] = json.loads(out["trace_digests"])
        return out

    def count(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        )

    def approaches(self) -> List[str]:
        return [
            r[0]
            for r in self._conn.execute(
                "SELECT DISTINCT approach FROM runs ORDER BY approach"
            )
        ]

    def mixes(self) -> List[str]:
        return [
            r[0]
            for r in self._conn.execute(
                "SELECT DISTINCT mix FROM runs ORDER BY mix"
            )
        ]

    def version_counts(self) -> Dict[int, int]:
        """Row counts per entry STORE_VERSION (stale entries stand out)."""
        return {
            int(r[0]): int(r[1])
            for r in self._conn.execute(
                "SELECT version, COUNT(*) FROM runs GROUP BY version"
            )
        }


def index_outcomes(outcomes, index: Optional[ResultIndex] = None) -> ResultIndex:
    """Index a finished campaign's outcomes directly (no blob reads).

    Used by ``campaign --gates`` to evaluate acceptance gates over exactly
    the runs the campaign produced — including ``--no-store`` campaigns,
    which have no blob directory to sync from. Defaults to a fresh
    in-memory index.
    """
    if index is None:
        index = ResultIndex(":memory:")
    for outcome in outcomes:
        if outcome.result is None:
            continue
        spec = outcome.spec
        doc = entry_doc(
            spec.key(), outcome.result, outcome.wall_clock, spec.describe()
        )
        index.upsert(row_from_doc(doc, source="campaign"))
    return index


def open_index(path: Union[str, Path], *, sync: bool = False) -> ResultIndex:
    """Open an index from a path that may be a store directory or a file.

    A directory is treated as a blob store: its ``index.sqlite`` is opened
    (and created/synced when ``sync``). Anything else is opened as an
    SQLite file directly.
    """
    p = Path(path)
    if p.is_dir():
        index = ResultIndex(index_path_for(p))
        if sync:
            index.sync(ResultStore(p, index=False))
        return index
    if not p.exists():
        raise ResultsError(
            f"no index database or store directory at {p}"
        )
    return ResultIndex(p)
