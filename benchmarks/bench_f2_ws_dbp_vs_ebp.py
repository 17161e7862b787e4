"""F2: weighted speedup — Shared(FR-FCFS) vs EBP vs DBP (claim C1).

Paper: DBP improves system throughput over equal bank partitioning by
~4.3%. Reproduced shape: DBP's gmean WS exceeds EBP's.
"""

from repro.experiments import run_experiment

from conftest import BENCH_MIXES, run_once, shape_checks_enabled, show


def bench_f2_weighted_speedup(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F2", runner, mixes=BENCH_MIXES)
    )
    show(result)
    assert result.rows[-1][0] == "gmean"
    if not shape_checks_enabled():
        return
    assert result.summary["dbp_vs_ebp_ws_pct"] > 0.0, (
        "claim C1 (throughput): DBP must beat EBP on gmean weighted speedup"
    )
