"""F7 (sensitivity): core count (2 / 4 / 8) with the matching mixes."""

from repro.experiments import run_experiment

from conftest import run_once, shape_checks_enabled, show


def bench_f7_cores_sweep(runner, benchmark):
    result = run_once(benchmark, lambda: run_experiment("F7", runner))
    show(result)
    assert result.column("cores") == ["2", "4", "8"]
    ws = result.column("dbp ws")
    # Weighted speedup grows with core count (more threads to sum over)...
    assert ws[0] < ws[2]
    if not shape_checks_enabled():
        return
    ms_ebp = result.column("ebp ms")
    ms_dbp = result.column("dbp ms")
    # ...and contention (maximum slowdown) grows with core count too.
    assert ms_dbp[0] < ms_dbp[2]
    # DBP's fairness should not collapse relative to EBP at any scale.
    for ebp, dbp in zip(ms_ebp, ms_dbp):
        assert dbp <= ebp * 1.10
