"""T3: workload mix table."""

from repro.experiments import run_experiment
from repro.workloads.mixes import MAIN_MIXES

from conftest import run_once, show


def bench_t3_mixes(runner, benchmark):
    result = run_once(benchmark, lambda: run_experiment("T3", runner))
    show(result)
    names = result.column("mix")
    assert all(m in names for m in MAIN_MIXES)
    categories = set(result.column("category"))
    # The evaluation spans all-heavy down to one-heavy mixes.
    assert {"H4", "H2L2", "H1L3"} <= categories
