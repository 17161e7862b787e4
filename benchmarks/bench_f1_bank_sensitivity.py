"""F1 (motivation): single-thread IPC vs. available bank colors.

Paper shape: high-BLP, low-locality applications (mcf) lose far more IPC
when confined to few banks than streaming applications (libquantum) — the
bank-level-parallelism loss equal partitioning inflicts.
"""

from repro.experiments import run_experiment

from conftest import run_once, shape_checks_enabled, show


def bench_f1_bank_sensitivity(runner, benchmark):
    result = run_once(benchmark, lambda: run_experiment("F1", runner))
    show(result)
    rows = {row[0]: row for row in result.rows}
    for row in result.rows:
        # More banks never meaningfully hurt.
        assert row[1] <= row[-1] * 1.05
    if not shape_checks_enabled():
        return
    mcf_loss = 1.0 - rows["mcf"][1]
    libq_loss = 1.0 - rows["libquantum"][1]
    assert mcf_loss > libq_loss + 0.05, (
        "bank-hungry mcf must lose more at 1 color than the streamer"
    )
    assert mcf_loss > 0.25  # the loss is substantial, not marginal
