"""F11 (extension): stride prefetching off/on across the policies."""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, show


def bench_f11_prefetching(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F11", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    assert result.column("prefetch") == ["off", "on"]
    for row in result.rows:
        assert all(v > 0 for v in row[1:])
