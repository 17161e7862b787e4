"""T1: system configuration table."""

from repro.experiments import run_experiment

from conftest import run_once, show


def bench_t1_configuration(runner, benchmark):
    result = run_once(benchmark, lambda: run_experiment("T1", runner))
    show(result)
    params = result.column("parameter")
    assert any("DRAM" in p for p in params)
    assert any("Bank colors" in p for p in params)
