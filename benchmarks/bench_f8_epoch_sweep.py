"""F8 (sensitivity): DBP repartitioning epoch length.

Shape: DBP is robust across an order of magnitude of epoch lengths — no
setting should collapse, and extremely short epochs pay a visible
migration-churn cost relative to the best setting.
"""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, show


def bench_f8_epoch_sweep(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F8", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    ws = result.column("ws")
    ms = result.column("ms")
    assert all(v > 0 for v in ws)
    assert all(v >= 1.0 for v in ms)
    # Robustness: the worst epoch setting is within 15% of the best.
    assert min(ws) > 0.85 * max(ws)
