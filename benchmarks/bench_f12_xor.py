"""F12 (extension): XOR bank permutation vs software partitioning."""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, show


def bench_f12_xor_interleaving(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F12", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    assert result.column("approach") == ["shared", "dbp", "shared+xor"]
    for row in result.rows:
        assert all(v > 0 for v in row[1:])
