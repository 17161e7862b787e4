"""F10 (extension): open-page vs closed-page row management."""

from repro.experiments import run_experiment

from conftest import BENCH_FAST_MIXES, run_once, show


def bench_f10_page_policy(runner, benchmark):
    result = run_once(
        benchmark, lambda: run_experiment("F10", runner, mixes=BENCH_FAST_MIXES)
    )
    show(result)
    assert result.column("page policy") == ["open", "closed"]
    for row in result.rows:
        assert all(v > 0 for v in row[1:])
