"""A finished System is freed by reference counting alone.

Every System is a web of reference cycles while it runs (cores and the
policy context call back into it, controllers and the scheduler name each
other, the agenda holds bound methods). ``System._finish`` cuts them, so a
process that runs many Systems — one alone baseline per app plus one shared
run per cell — does not keep the dead ones until a cyclic collection
happens to run. Each case here runs a System with the cyclic collector
off, drops it, and asserts that it is gone at once and that a collection
afterwards finds nothing to free.

Only Systems that ran to the horizon are covered: a System built but never
run (or aborted mid-run) still holds its wiring.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.config import PrefetcherConfig, SystemConfig
from repro.core.integration import get_approach
from repro.sim.runner import Runner
from repro.sim.system import System
from repro.telemetry import TelemetryRecorder
from repro.workloads import resolve_mix
from tests import kernelgrid

HORIZON = 30_000


def _traces():
    return kernelgrid._traces(
        resolve_mix(kernelgrid.MIX).apps,
        kernelgrid.SEED,
        kernelgrid.TARGET_INSTS,
    )


def _system(approach_name: str, prefetch: bool = False, **kwargs) -> System:
    approach = get_approach(approach_name)
    config = SystemConfig().with_scheduler(
        approach.scheduler, **approach.scheduler_params
    )
    if prefetch:
        config = replace(config, prefetcher=PrefetcherConfig(enabled=True))
    return System(
        config,
        _traces(),
        horizon=HORIZON,
        policy=approach.make_policy(),
        **kwargs,
    )


def _run(system: System) -> System:
    system.run()
    return system


def _assert_freed_on_drop(make_finished) -> None:
    """``make_finished()`` returns a finished System the caller then drops."""
    _traces()  # trace generation is cached, outside the measured window
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        system = make_finished()
        ref = weakref.ref(system)
        del system
        assert ref() is None, "a dropped, finished System is still alive"
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        assert found == 0, f"cyclic garbage left behind: {kinds.most_common(8)}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "spec", kernelgrid.GRID, ids=[spec[0] for spec in kernelgrid.GRID]
)
def test_every_grid_system_is_freed_on_drop(spec):
    _assert_freed_on_drop(
        lambda: _run(kernelgrid.build_grid_system(spec, horizon=HORIZON))
    )


@pytest.mark.parametrize("approach", ["dbp-tcm", "parbs"])
def test_prefetching_system_is_freed_on_drop(approach):
    # A served prefetch lingers in the best-request memo, and its
    # completion is a partial of System._finish_prefetch.
    _assert_freed_on_drop(lambda: _run(_system(approach, prefetch=True)))


def test_profiled_system_is_freed_and_still_reports():
    def make():
        system = _run(_system("dbp-tcm", profile=True))
        report = system.profile_report()
        assert report["events"] == system.engine.stat_events > 0
        return system

    _assert_freed_on_drop(make)


def test_telemetry_system_is_freed_on_drop():
    def make():
        recorder = TelemetryRecorder()
        system = _run(_system("dbp-tcm", telemetry=recorder))
        assert recorder.epochs > 0
        return system

    _assert_freed_on_drop(make)


def test_post_run_reads_survive_the_release():
    system = _run(_system("dbp-tcm"))
    snapshot = system.profiler.snapshot(HORIZON)
    assert set(snapshot.threads) == set(range(len(system.cores)))
    names = {m["name"] for m in system.metrics_registry().snapshot()["metrics"]}
    assert "repro_cpu_retired_insts_total" in names
    assert all(core.port is None for core in system.cores)


def test_alone_runs_leave_no_system_behind(small_config):
    runner = Runner(config=small_config, horizon=HORIZON, target_insts=200_000)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for app in ("mcf", "lbm"):
            assert runner.alone_ipc(app) > 0
        alive = [obj for obj in gc.get_objects() if isinstance(obj, System)]
        assert alive == []
    finally:
        if was_enabled:
            gc.enable()
