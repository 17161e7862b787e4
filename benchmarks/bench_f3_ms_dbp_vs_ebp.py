"""F3: maximum slowdown — Shared(FR-FCFS) vs EBP vs DBP (claim C1).

Paper: DBP improves fairness over equal bank partitioning by ~16%
(i.e. reduces maximum slowdown). Reproduced shape: DBP's gmean MS is below
EBP's. Runs are shared with F2 through the session runner's result cache.
"""

from repro.experiments import run_experiment

from conftest import BENCH_MIXES, run_once, shape_checks_enabled, show


def bench_f3_maximum_slowdown(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F3", runner, mixes=BENCH_MIXES)
    )
    show(result)
    if not shape_checks_enabled():
        return
    assert result.summary["dbp_vs_ebp_ms_pct"] < 0.0, (
        "claim C1 (fairness): DBP must reduce maximum slowdown vs EBP"
    )
