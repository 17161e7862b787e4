"""F13 (robustness): claim C1 across workload-generation seeds."""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, QUICK, run_once, shape_checks_enabled, show

SEEDS = (1, 2) if QUICK else (1, 2, 3)


def bench_f13_seed_robustness(runner, benchmark):
    result = run_once(
        benchmark,
        lambda: run_experiment("F13", runner, mixes=BENCH_FAST_MIXES, seeds=SEEDS),
    )
    show(result)
    assert len(result.rows) == len(SEEDS)
    if not shape_checks_enabled():
        return
    # The fairness direction of claim C1 must hold for every seed.
    assert result.summary["max_ms_delta_pct"] < 2.0
