"""F9 (ablation): DBP demand-estimator ingredients.

Shape: the full estimator is at least as fair as each ablated variant;
the MPKI-proportional strawman (which over-serves streaming threads) does
not beat the BLP-based estimators on fairness.
"""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, shape_checks_enabled, show


def bench_f9_ablation(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F9", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    rows = {row[0]: row for row in result.rows}
    assert set(rows) == {"full", "blp-only", "mpki", "no-pool"}
    for row in result.rows:
        assert row[1] > 0 and row[2] >= 1.0
    if not shape_checks_enabled():
        return
    # The full estimator's fairness is competitive with every variant
    # (within a noise band), i.e. no ingredient actively hurts.
    best_ms = min(row[2] for row in result.rows)
    assert rows["full"][2] <= best_ms * 1.08
