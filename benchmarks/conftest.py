"""Shared state for the benchmark harness.

One session-scoped Runner sets every bench module's scope. Grid figures
run through the campaign executor against the campaign subsystem's
persistent result store, so e.g. the F3 fairness view reuses the F2
throughput runs through the store, and only through it: with the store
off, F3 simulates F2's cells again at any ``REPRO_BENCH_JOBS``. Runs also
persist *across* sessions — a repeated benchmark invocation is served
from ``benchmarks/results/store/`` and the session summary reports how
much wall-clock the store saved.

Environment knobs:

* ``REPRO_BENCH_HORIZON`` — simulated CPU cycles per run (default 300000).
  Shape assertions are skipped below 150000 cycles, where run-to-run noise
  exceeds the effects being measured.
* ``REPRO_BENCH_QUICK``   — set to 1 to sweep a single mix per figure.
* ``REPRO_BENCH_JOBS``    — worker processes for the sweeps (default 1).
* ``REPRO_BENCH_STORE``   — set to 0 to disable the persistent store.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign import ResultStore
from repro.sim.runner import Runner
from repro.workloads.mixes import MAIN_MIXES

BENCH_HORIZON = int(os.environ.get("REPRO_BENCH_HORIZON", "300000"))
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
STORE_ENABLED = os.environ.get("REPRO_BENCH_STORE", "1") not in ("", "0")

#: Mixes for the headline sweeps (F2-F4).
BENCH_MIXES = ["M4"] if QUICK else list(MAIN_MIXES)
#: Mixes for the secondary sweeps (F5, F6, F8, F9).
BENCH_FAST_MIXES = ["M4"] if QUICK else ["M1", "M4", "M6", "M7", "M10"]
#: Below this horizon the claim deltas drown in noise; only print tables.
ASSERT_HORIZON = 150_000

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The session's persistent campaign store (None when disabled).
STORE = ResultStore(RESULTS_DIR / "store") if STORE_ENABLED else None


def shape_checks_enabled() -> bool:
    """True when the horizon is long enough to assert claim shapes."""
    return BENCH_HORIZON >= ASSERT_HORIZON


@pytest.fixture(scope="session")
def runner() -> Runner:
    return Runner(horizon=BENCH_HORIZON, store=STORE, jobs=BENCH_JOBS)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def show(result) -> None:
    """Print an experiment's table and persist it to benchmarks/results/.

    pytest captures the print unless ``-s`` is given; the file copy is what
    EXPERIMENTS.md is written from.
    """
    text = result.render()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.exp_id}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Surface campaign-store statistics in the session summary.

    The same numbers land in ``benchmarks/results/store_stats.json``.
    """
    if STORE is None:
        return
    stats = STORE.stats
    if stats.hits + stats.misses + stats.writes == 0:
        return
    # Writes are counted per process; with REPRO_BENCH_JOBS > 1 they happen
    # in the campaign workers, so report the on-disk entry count too.
    entries = STORE.entry_count()
    terminalreporter.write_sep("-", "campaign result store")
    terminalreporter.write_line(
        f"store {STORE.root}: {entries} entries; {stats.hits} hits, "
        f"{stats.misses} misses, {stats.writes} writes, "
        f"{stats.corrupt} quarantined; "
        f"{stats.wall_saved:.1f}s of simulation served from disk"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "store_stats.json").write_text(
        json.dumps(
            {
                "jobs": BENCH_JOBS,
                "horizon": BENCH_HORIZON,
                "entries": entries,
                **stats.as_dict(),
            },
            indent=2,
        )
        + "\n"
    )
