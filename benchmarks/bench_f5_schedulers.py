"""F5 (context): the memory schedulers without partitioning.

Shape: FR-FCFS's row-hit-first reordering buys throughput over strict
FCFS — the premise of the scheduling line of work the paper builds on.
"""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, shape_checks_enabled, show


def bench_f5_schedulers(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F5", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    names = result.column("scheduler")
    assert names == [
        "shared-fcfs",
        "shared-frfcfs",
        "parbs",
        "atlas",
        "bliss",
        "tcm",
    ]
    if not shape_checks_enabled():
        return
    assert result.summary["frfcfs_vs_fcfs_ws_pct"] > 0.0
