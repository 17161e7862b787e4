"""Result service: SQLite index, derived views, A/B diffing, gates.

This package layers queryability and verification over the campaign
subsystem's content-addressed JSON blob store (which stays the source of
truth — ``STORE_VERSION`` and run keys are untouched):

* :mod:`~repro.results.db`      — the SQLite index (``index.sqlite``
  beside the blobs): incremental sync, multi-process-safe idempotent
  upserts, filtered row queries;
* :mod:`~repro.results.views`   — derived views: cell-matched approach
  pair deltas, per-approach rollups, intensity-class breakdowns;
* :mod:`~repro.results.compare` — A/B diffing of two campaigns or store
  snapshots into a ``compare_summary`` with regressions flagged;
* :mod:`~repro.results.gates`   — declarative acceptance gates encoding
  the paper's C1-C3 shape claims as winner/sign/magnitude-ordering
  predicates, with machine-readable pass/fail reports;
* :mod:`~repro.results.observatory` — the perf-regression observatory:
  ``benchmarks/BENCH_*.json`` trajectories ingested into bench tables in
  the same index, with ratio/throughput regression flagging
  (``repro-dbp results perf-trend``).

Entry points: the ``repro-dbp results index|query|compare|gates`` CLI and
``repro-dbp campaign --gates``; the store itself keeps the index fresh by
upserting on every ``put``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".db": (
            "INDEX_FILENAME",
            "SCHEMA_VERSION",
            "ResultIndex",
            "ResultsError",
            "SyncReport",
            "index_outcomes",
            "index_path_for",
            "open_index",
            "row_from_doc",
        ),
        ".views": (
            "METRICS",
            "PairDeltas",
            "approach_rollup",
            "gain_pct",
            "geomean",
            "intensity_breakdown",
            "pair_deltas",
            "render_intensity",
            "render_pair_deltas",
            "render_rollup",
        ),
        ".compare": ("CompareSummary", "compare_indexes", "render_compare"),
        ".observatory": (
            "BENCH_SCHEMA_VERSION",
            "BenchSample",
            "RegressionFinding",
            "bench_samples_from_doc",
            "bench_trend",
            "check_bench_docs",
            "load_bench_docs",
            "render_findings",
            "render_trend",
            "sync_bench_dir",
        ),
        ".gates": (
            "PAPER_GATES",
            "DeltaGate",
            "GateCheck",
            "GatesReport",
            "OrderingGate",
            "evaluate_gates",
            "gate_from_dict",
            "gate_to_dict",
            "load_gates_file",
        ),
    },
)
