"""F6 (sensitivity): bank colors per channel.

Shape: DBP's edge over EBP is largest when banks are scarce (8 colors) and
shrinks as banks become plentiful — with many banks per thread, equal
partitioning no longer starves anyone of bank-level parallelism.
"""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, shape_checks_enabled, show


def bench_f6_banks_sweep(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F6", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    assert result.column("colors") == ["8", "16", "32"]
    for row in result.rows:
        assert all(v > 0 for v in row[1:])
    if not shape_checks_enabled():
        return
    # At the scarcest configuration DBP must not lose to EBP on fairness.
    first = result.rows[0]
    assert first[4] <= first[3] * 1.02  # dbp ms <= ebp ms (2% noise band)
