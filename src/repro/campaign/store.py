"""Persistent, content-addressed result store.

Every simulation run in this reproduction is a pure function of its inputs:
the :class:`~repro.config.SystemConfig`, the application list, the approach
(resolved to its partitioning policy and scheduler, with parameters), the
trace seed and length, and the horizon. The store exploits that purity: the
SHA-256 of a canonical JSON encoding of those inputs addresses one JSON
entry under ``benchmarks/results/store/``, so any process that reproduces
the same inputs — a later CLI invocation, a benchmark session, a campaign
worker — gets the finished :class:`~repro.records.RunResult` for free.

Properties the executor and the benches rely on:

* **Atomic writes** — every file goes through :mod:`repro.artefact`, so
  a killed worker can never leave a half-written entry behind.
* **Corruption quarantine** — the store's policy on that module's two
  outcomes. A :class:`~repro.artefact.Corrupt` entry (or one whose result
  document fails to decode) is renamed to ``<entry>.corrupt`` (kept for
  post-mortem) and treated as a miss. A :class:`~repro.artefact.Stale`
  one, written under another ``STORE_VERSION``, is skipped (and counted
  separately) but left in place, since a recompute overwrites the same
  path anyway.
* **Accounting** — hits, misses, writes, stale skips, quarantined
  entries, and the simulated wall-clock a hit avoided re-paying are all
  counted on the store instance, for campaign reports and bench session
  summaries.
* **Index hook** — unless constructed with ``index=False``, every ``put``
  also upserts one row into the SQLite index maintained beside the blobs
  (``<root>/index.sqlite``, see :mod:`repro.results.db`), so the queryable
  view of a shared store stays fresh without a separate sync pass. Index
  trouble never fails a put: the blobs are the source of truth and the
  index can always be rebuilt with ``repro-dbp results index``.

``STORE_VERSION`` is the code-version salt in every key: bump it whenever a
change alters simulation results so stale entries can never be served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..artefact import Corrupt, Stale, read_json, tmp_glob, write_json
from ..core.integration import get_approach
from ..metrics import MetricSummary
from ..records import (
    RunResult,
    SystemResult,
    ThreadResult,
    WorkloadRunMetrics,
)
from .failures import RECORD_VERSION

if TYPE_CHECKING:  # keys take a config; reading a store needs none
    from ..config import SystemConfig

#: Salt hashed into every key. Bump on any change that alters what a
#: simulation computes, so old entries become unreachable rather than wrong.
#: 2: independent scheduler-quantum/policy-epoch cadences; migration traffic
#:    excluded from per-thread accounting; read latency measured at data
#:    return (CL + tBURST included).
STORE_VERSION = 2


# ---------------------------------------------------------------------------
# Keys.
# ---------------------------------------------------------------------------
def _canonical(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)


#: The Runner/RunSpec attributes every key hashes beside the config.
_SCOPE_FIELDS = ("seed", "horizon", "target_insts", "ahead_limit", "validate")


def scope_of(owner: object) -> Dict[str, object]:
    """A Runner's or RunSpec's scope, as the ``**scope`` of a key function."""
    return {name: getattr(owner, name) for name in _SCOPE_FIELDS}


def _scope_doc(
    config: SystemConfig,
    *,
    seed: int,
    horizon: int,
    target_insts: int,
    ahead_limit: int = 8192,
    validate: bool = False,
) -> Dict[str, object]:
    """What every key here hashes — the code-version salt, the machine and
    the scope a simulation runs under — and the one signature behind the
    key functions' ``**scope``."""
    return {
        "store_version": STORE_VERSION,
        "config": dataclasses.asdict(config),
        "seed": seed,
        "horizon": horizon,
        "target_insts": target_insts,
        "ahead_limit": ahead_limit,
        "validate": bool(validate),
    }


def _digest(doc: object) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def run_key(
    config: SystemConfig,
    apps: Sequence[str],
    approach: str,
    *,
    trace_digests: Optional[Mapping[str, str]] = None,
    **scope: object,
) -> str:
    """Content hash addressing one (config, apps, approach, seed, horizon) run.

    ``scope`` is ``seed``, ``horizon``, ``target_insts`` and optionally
    ``ahead_limit`` (8192) and ``validate`` (False). The approach is
    resolved through the registry so the key binds the *resolved* policy
    and scheduler (names and parameters), not just the label: two
    registrations sharing a label can never collide.

    ``trace_digests`` maps library-trace app names to their
    :attr:`~repro.cpu.trace.Trace.digest`. Library traces are *not* pure
    functions of (name, seed, target_insts) — the file behind a name can
    change — so their content digests must be part of the address. The
    field is folded in only when non-empty, which leaves every
    all-synthetic key (and the results already stored under it) untouched.
    """
    spec = get_approach(approach)
    doc = _scope_doc(config, **scope)
    doc["apps"] = list(apps)
    doc["approach"] = {
        "name": spec.name,
        "policy": spec.policy,
        "policy_params": dict(spec.policy_params),
        "scheduler": spec.scheduler,
        "scheduler_params": dict(spec.scheduler_params),
    }
    if trace_digests:
        doc["library_traces"] = {
            str(app): str(digest)
            for app, digest in dict(trace_digests).items()
        }
    return _digest(doc)


def alone_key(
    config: SystemConfig,
    app: str,
    *,
    trace_digest: Optional[str] = None,
    **scope: object,
) -> str:
    """Content hash addressing one application's alone-run baseline.

    Hashes the system the baseline actually runs on
    (:meth:`SystemConfig.alone`), so cells that differ only in core count,
    scheduler or approach — every cell of a C1–C3 grid — share one record
    per app. ``scope`` is as for :func:`run_key`, and a library trace
    contributes its content digest as it does there.
    """
    doc = _scope_doc(config.alone(), **scope)
    doc["alone"] = app
    if trace_digest:
        doc["library_trace"] = trace_digest
    return _digest(doc)


def runner_fingerprint(config: SystemConfig, **scope: object) -> str:
    """Hash of everything a Runner needs besides (apps, approach).

    Campaign workers key their process-local Runner cache on this, so the
    cells one worker serves reuse generated traces.
    """
    return _digest(_scope_doc(config, **scope))


def default_store_dir() -> Path:
    """Where results persist by default.

    ``REPRO_STORE`` overrides; otherwise ``benchmarks/results/store`` in a
    source checkout, falling back to ``~/.cache/repro-dbp/store`` for
    installed copies.
    """
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results" / "store"
    return Path.home() / ".cache" / "repro-dbp" / "store"


# ---------------------------------------------------------------------------
# RunResult <-> JSON codec.
# ---------------------------------------------------------------------------
def encode_run_result(result: RunResult) -> Dict[str, object]:
    """A JSON-encodable document holding the complete RunResult."""
    metrics = result.metrics
    system = result.system
    return {
        "metrics": {
            "mix": metrics.mix,
            "approach": metrics.approach,
            "apps": list(metrics.apps),
            "summary": {
                "weighted_speedup": metrics.summary.weighted_speedup,
                "harmonic_speedup": metrics.summary.harmonic_speedup,
                "max_slowdown": metrics.summary.max_slowdown,
            },
            "slowdowns": {str(t): s for t, s in metrics.slowdowns.items()},
        },
        "system": {
            "horizon": system.horizon,
            "threads": {
                str(t): dataclasses.asdict(thread)
                for t, thread in system.threads.items()
            },
            "total_commands": system.total_commands,
            "total_refreshes": system.total_refreshes,
            "pages_migrated": system.pages_migrated,
            "engine_events": system.engine_events,
            "bus_utilization": {
                str(c): u for c, u in system.bus_utilization.items()
            },
        },
        "alone_ipcs": {str(t): v for t, v in result.alone_ipcs.items()},
        "shared_ipcs": {str(t): v for t, v in result.shared_ipcs.items()},
        "telemetry": result.telemetry,
        "metrics_snapshot": result.metrics_snapshot,
    }


def result_digest(result: RunResult) -> str:
    """Content hash of a RunResult's canonical JSON encoding.

    Two runs whose digests match produced bit-identical metrics, thread
    accounting, and telemetry — the fidelity check the trace-library
    round-trip tests and the CI smoke job rely on.
    """
    return _digest(encode_run_result(result))


def decode_run_result(doc: Dict[str, object]) -> RunResult:
    """Rebuild a RunResult from :func:`encode_run_result` output.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed input;
    the store turns those into quarantine.
    """
    m = doc["metrics"]
    summary = MetricSummary(
        weighted_speedup=float(m["summary"]["weighted_speedup"]),
        harmonic_speedup=float(m["summary"]["harmonic_speedup"]),
        max_slowdown=float(m["summary"]["max_slowdown"]),
    )
    metrics = WorkloadRunMetrics(
        mix=m["mix"],
        approach=m["approach"],
        summary=summary,
        slowdowns={int(t): float(s) for t, s in m["slowdowns"].items()},
        apps=tuple(m["apps"]),
    )
    s = doc["system"]
    system = SystemResult(
        horizon=int(s["horizon"]),
        threads={
            int(t): ThreadResult(**thread) for t, thread in s["threads"].items()
        },
        total_commands=int(s["total_commands"]),
        total_refreshes=int(s["total_refreshes"]),
        pages_migrated=int(s["pages_migrated"]),
        engine_events=int(s["engine_events"]),
        bus_utilization={
            int(c): float(u) for c, u in s["bus_utilization"].items()
        },
    )
    return RunResult(
        metrics=metrics,
        system=system,
        alone_ipcs={int(t): float(v) for t, v in doc["alone_ipcs"].items()},
        shared_ipcs={int(t): float(v) for t, v in doc["shared_ipcs"].items()},
        telemetry=doc.get("telemetry"),
        metrics_snapshot=doc.get("metrics_snapshot"),
    )


def entry_doc(
    key: str,
    result: RunResult,
    wall_clock: float,
    describe: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The document one store entry holds (and the result index reads):
    the run's key, its ``spec`` metadata (:meth:`RunSpec.describe`), the
    wall-clock it took and the encoded result."""
    return {
        "version": STORE_VERSION,
        "key": key,
        "spec": describe or {},
        "wall_clock": wall_clock,
        "result": encode_run_result(result),
    }


# ---------------------------------------------------------------------------
# The store.
# ---------------------------------------------------------------------------
@dataclass
class StoreStats:
    """Accounting for one store handle (process-local)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    #: Readable entries skipped because they carry another STORE_VERSION.
    #: Distinct from ``corrupt``: stale entries are well-formed and stay
    #: on disk; malformed ones are quarantined.
    stale: int = 0
    #: Put-time index upserts that failed (the blob still persisted).
    index_errors: int = 0
    #: Simulated-run wall-clock seconds that hits avoided re-paying.
    wall_saved: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        wall_saved = round(self.wall_saved, 3)
        return dict(dataclasses.asdict(self), wall_saved=wall_saved)


#: Where each kind of store file lives (see the sections below).
_ENTRY_GLOB = "*/*.json"
_ALONE_GLOB = "alone/*/*.json"
_FAILURE_GLOB = "failures/*/*.json"


class ResultStore:
    """Content-addressed run results on disk (safe for concurrent writers).

    With ``index`` (the default) every put also upserts into the SQLite
    index colocated with the blobs; pass ``index=False`` for a read-only
    or index-free handle (e.g. when a sync pass owns the index).
    """

    def __init__(self, root, index: bool = True) -> None:
        self.root = Path(root)
        self.stats = StoreStats()
        self.index_enabled = index
        self._index = None

    def path_for(self, key: str) -> Path:
        """Entry path; two-character sharding keeps directories small."""
        return self.root / key[:2] / f"{key}.json"

    def index_path(self) -> Path:
        """Where this store's SQLite index lives (whether or not it exists)."""
        from ..results.db import index_path_for

        return index_path_for(self.root)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[RunResult, float]]:
        """The stored (result, original wall-clock) for ``key``, or None.

        Counts a hit or miss. A malformed entry (undecodable JSON, wrong
        key, broken result document) is quarantined to ``<entry>.corrupt``
        and counted as corrupt; a well-formed entry written by a different
        ``STORE_VERSION`` is merely counted stale and left in place — the
        recompute will overwrite the same path.
        """
        path = self.path_for(key)
        try:
            doc = read_json(path, STORE_VERSION, kind="store entry")
            if doc.get("key") != key:
                raise Corrupt("entry key does not match its path")
            result = decode_run_result(doc["result"])
            wall_clock = float(doc.get("wall_clock", 0.0))
        except Stale:
            self.stats.stale += 1
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError):  # Corrupt is a ValueError
            # A missing entry is Corrupt too, but has nothing to quarantine.
            if self._quarantine(path):
                self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.wall_saved += wall_clock
        return result, wall_clock

    def put(
        self,
        key: str,
        result: RunResult,
        wall_clock: float,
        describe: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Persist one run atomically; last concurrent writer wins."""
        doc = entry_doc(key, result, wall_clock, describe)
        path = write_json(self.path_for(key), doc)
        self.stats.writes += 1
        self._index_put(doc, path)
        return path

    def _index_put(self, doc: Dict[str, object], path: Path) -> None:
        """Upsert the put into the colocated index; never fail the put."""
        if not self.index_enabled:
            return
        try:
            if self._index is None:
                from ..results.db import ResultIndex

                self._index = ResultIndex(self.index_path())
            self._index.upsert_doc(
                doc, mtime=path.stat().st_mtime, source="put"
            )
        except (OSError, sqlite3.Error, ValueError, KeyError, TypeError):
            # A broken/contended index must not lose a finished simulation;
            # `results index` rebuilds the rows from the blob later.
            self.stats.index_errors += 1

    # ------------------------------------------------------------------
    # Alone-baseline records: one app's alone-run IPC, addressed by
    # :func:`alone_key`, under ``alone/<shard>/<key>.json`` — three path
    # levels, like failure records, so the two-level ``*/*.json`` globs the
    # index and every results view read through never see them.
    # ------------------------------------------------------------------
    def alone_path_for(self, key: str) -> Path:
        return self.root / "alone" / key[:2] / f"{key}.json"

    def get_alone(self, key: str) -> Optional[float]:
        """The recorded alone IPC for ``key``, or None.

        A record that is missing, torn, of another ``STORE_VERSION``, for
        another key or not a positive number is a miss, never an error:
        the caller simulates and its write replaces the same path.
        """
        path = self.alone_path_for(key)
        doc = _read_or_none(path, STORE_VERSION, kind="alone record") or {}
        ipc = doc.get("ipc")
        if doc.get("key") == key and isinstance(ipc, float) and ipc > 0:
            return ipc
        return None

    def put_alone(
        self, key: str, ipc: float, describe: Dict[str, object]
    ) -> Path:
        """Persist one alone IPC atomically (same contract as put)."""
        doc = {
            "version": STORE_VERSION,
            "key": key,
            "describe": describe,
            "ipc": ipc,
        }
        return write_json(self.alone_path_for(key), doc)

    def alone_paths(self) -> List[Path]:
        """Every alone-baseline record on disk."""
        return sorted(self.root.glob(_ALONE_GLOB))

    # ------------------------------------------------------------------
    # Failure records (the supervisor's forensics; see campaign.failures).
    # They live under ``failures/<shard>/<key>.json`` — three path levels,
    # so the two-level ``*/*.json`` result-blob globs never see them.
    # ------------------------------------------------------------------
    def failure_path_for(self, key: str) -> Path:
        return self.root / "failures" / key[:2] / f"{key}.json"

    def put_failure(self, key: str, doc: Dict[str, object]) -> Path:
        """Persist one failure record atomically (same contract as put)."""
        return write_json(self.failure_path_for(key), doc)

    def get_failure(self, key: str) -> Optional[Dict[str, object]]:
        """The persisted failure record for ``key``, or None.

        A corrupt record, or one of another ``RECORD_VERSION``, returns
        None rather than raising: failure records are forensics, never
        inputs to a simulation.
        """
        return _read_failure(self.failure_path_for(key))

    def clear_failure(self, key: str) -> None:
        """Drop the failure record for ``key`` (the spec now has a result)."""
        try:
            self.failure_path_for(key).unlink()
        except OSError:
            pass

    def failure_paths(self) -> List[Path]:
        """Every failure record on disk, readable or not."""
        return sorted(self.root.glob(_FAILURE_GLOB))

    def iter_failures(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Every readable current-version failure record as (key, doc)."""
        for path in self.failure_paths():
            doc = _read_failure(path)
            if doc is not None:
                yield path.stem, doc

    # ------------------------------------------------------------------
    # Entry iteration (the index's sync feed and the store CLI).
    # ------------------------------------------------------------------
    def iter_blobs(self) -> Iterator[Tuple[str, Path]]:
        """Every entry on disk as (key, path), without decoding."""
        for path in sorted(self.root.glob(_ENTRY_GLOB)):
            yield path.stem, path

    def load_doc(self, path) -> Dict[str, object]:
        """One entry's document, whatever its version; raises ``Corrupt``
        (a ``ValueError``) and never quarantines (reading is not serving).
        """
        return read_json(path, None, kind="store entry")

    def quarantined_paths(self) -> List[Path]:
        """Every ``.corrupt``-quarantined entry on disk."""
        return sorted(self.root.glob("*/*.corrupt"))

    def orphaned_tmp_paths(self) -> List[Path]:
        """Temp files left by writers killed mid-write, at every level."""
        return sorted(
            path
            for pattern in (_ENTRY_GLOB, _ALONE_GLOB, _FAILURE_GLOB)
            for path in self.root.glob(tmp_glob(pattern))
        )

    def stale_paths(self) -> List[Path]:
        """Entries, alone records and failure records of another version.

        Reads every file — O(store); meant for ``store gc --stale``, not
        hot paths. Corrupt files are not reported here (entries are
        ``gc``'s quarantine listing's business once ``get`` renames them;
        a corrupt record is overwritten by its next write).
        """
        entries = [path for _key, path in self.iter_blobs()]
        checks = [
            (path, STORE_VERSION, "version")
            for path in entries + self.alone_paths()
        ] + [
            (path, RECORD_VERSION, "record_version")
            for path in self.failure_paths()
        ]
        stale = []
        for path, version, field_name in checks:
            try:
                read_json(path, version, field_name)
            except Stale:
                stale.append(path)
            except Corrupt:
                pass
        return stale

    def disk_stats(self) -> Dict[str, object]:
        """Disk-level accounting: entry/alone-record/quarantine/tmp counts
        and bytes."""
        blobs = [path for _key, path in self.iter_blobs()]
        alone = self.alone_paths()
        quarantined = self.quarantined_paths()
        index_path = self.index_path()
        return {
            "root": str(self.root),
            "entries": len(blobs),
            "entry_bytes": _total_size(blobs),
            "alone_records": len(alone),
            "alone_bytes": _total_size(alone),
            "quarantined": len(quarantined),
            "quarantined_bytes": _total_size(quarantined),
            "tmp_files": len(self.orphaned_tmp_paths()),
            "index_exists": index_path.is_file(),
            "index_bytes": _size_of(index_path),
        }

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path) -> bool:
        """Move a corrupt entry aside; False when there was none."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except FileNotFoundError:
            return False
        except OSError:  # pragma: no cover - raced or read-only store
            pass
        return True

    def entry_count(self) -> int:
        """Number of valid-looking entries on disk (no decode attempted)."""
        return sum(1 for _ in self.root.glob(_ENTRY_GLOB))


def _read_or_none(path: Path, *args, **kwargs) -> Optional[Dict[str, object]]:
    """:func:`read_json`, with None for a stale or corrupt file."""
    try:
        return read_json(path, *args, **kwargs)
    except (Stale, Corrupt):
        return None


def _read_failure(path: Path) -> Optional[Dict[str, object]]:
    return _read_or_none(
        path, RECORD_VERSION, "record_version", kind="failure record"
    )


def _total_size(paths: Sequence[Path]) -> int:
    return sum(_size_of(path) for path in paths)


def _size_of(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:  # pragma: no cover - raced with a concurrent gc
        return 0


def unlink_all(paths: Sequence[Path]) -> Tuple[int, int]:
    """Delete ``paths`` (a store listing); returns (files, bytes freed)."""
    count = freed = 0
    for path in paths:
        size = _size_of(path)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced or read-only store
            continue
        count += 1
        freed += size
    return count, freed
