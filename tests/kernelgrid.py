"""The kernel-equivalence differential grid.

One place defines the (approach x scheduler x page-policy x validate) grid
that both the golden-fixture generator (``scripts/gen_kernel_golden.py``)
and the differential test (``tests/test_kernel_equivalence.py``) run. A
grid run is a bare :class:`~repro.sim.system.System` — no Runner, no
caches — so the captured document is exactly what one simulation produces:
per-thread results, command/refresh totals, engine event counts, and the
full metrics-registry snapshot.

Every approach in the registry exercises its scheduler through the
controller hot loop; the closed-page rows exercise the stale-row precharge
path; the ``validate`` rows replay each channel's full command log through
the strict protocol validator on top of the comparison.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.core.integration import get_approach
from repro.sim.system import System
from repro.traces.source import resolve_trace
from repro.workloads import resolve_mix

#: (run-name, approach, page_policy, validate)
GridSpec = Tuple[str, str, str, bool]

HORIZON = 60_000
SEED = 1
TARGET_INSTS = 4_000_000
MIX = "M4"

#: Every registered approach (all six schedulers, all policies) on the
#: default open-page config, plus closed-page and validator-on rows.
GRID: List[GridSpec] = [
    ("shared-fcfs/open", "shared-fcfs", "open", False),
    ("shared-frfcfs/open", "shared-frfcfs", "open", False),
    ("parbs/open", "parbs", "open", False),
    ("atlas/open", "atlas", "open", False),
    ("tcm/open", "tcm", "open", False),
    ("bliss/open", "bliss", "open", False),
    ("ebp/open", "ebp", "open", False),
    ("dbp/open", "dbp", "open", False),
    ("mcp/open", "mcp", "open", False),
    ("ebp-tcm/open", "ebp-tcm", "open", False),
    ("dbp-tcm/open", "dbp-tcm", "open", False),
    ("dbp+mcp/open", "dbp+mcp", "open", False),
    ("shared-frfcfs/closed", "shared-frfcfs", "closed", False),
    ("parbs/closed", "parbs", "closed", False),
    ("dbp-tcm/closed", "dbp-tcm", "closed", False),
    ("dbp-tcm/open+validate", "dbp-tcm", "open", True),
    ("shared-frfcfs/closed+validate", "shared-frfcfs", "closed", True),
]

_trace_cache: Dict[tuple, object] = {}


def _traces(apps, seed: int, target_insts: int):
    out = []
    for app in apps:
        key = (app, seed, target_insts)
        trace = _trace_cache.get(key)
        if trace is None:
            trace = resolve_trace(app, seed, target_insts)
            _trace_cache[key] = trace
        out.append(trace)
    return out


def build_grid_system(
    spec: GridSpec,
    horizon: int = HORIZON,
) -> System:
    """A fresh, unrun :class:`System` for one grid entry."""
    _name, approach_name, page_policy, validate = spec
    approach = get_approach(approach_name)
    config = SystemConfig().with_scheduler(
        approach.scheduler, **approach.scheduler_params
    )
    if page_policy != config.controller.page_policy:
        config = replace(
            config,
            controller=replace(config.controller, page_policy=page_policy),
        )
    traces = _traces(resolve_mix(MIX).apps, SEED, TARGET_INSTS)
    return System(
        config,
        traces,
        horizon=horizon,
        policy=approach.make_policy(),
        validate=validate,
    )


def run_grid_spec(
    spec: GridSpec,
    horizon: int = HORIZON,
) -> Dict[str, object]:
    """Run one grid entry; returns a JSON-comparable result document."""
    system = build_grid_system(spec, horizon=horizon)
    result = system.run()
    return grid_doc(system, result)


def grid_doc(system: System, result) -> Dict[str, object]:
    """The JSON-comparable document for one finished grid run."""
    snapshot = system.metrics_registry().snapshot()
    # repro_kernel_* flight-recorder counters describe the controller's
    # memo machinery, which the full-rescan oracle the fixture came from
    # does not have; strip them so the differential document compares only
    # simulation-visible state against the committed golden fixture.
    snapshot["metrics"] = [
        metric
        for metric in snapshot["metrics"]
        if not metric["name"].startswith("repro_kernel_")
    ]
    return {
        "threads": {
            str(tid): {
                "app": tr.app,
                "ipc": tr.ipc,
                "retired_insts": tr.retired_insts,
                "reads": tr.reads,
                "writes": tr.writes,
                "llc_miss_rate": tr.llc_miss_rate,
                "row_hit_rate": tr.row_hit_rate,
                "mean_read_latency": tr.mean_read_latency,
            }
            for tid, tr in sorted(result.threads.items())
        },
        "total_commands": result.total_commands,
        "total_refreshes": result.total_refreshes,
        "pages_migrated": result.pages_migrated,
        "engine_events": result.engine_events,
        "bus_utilization": {
            str(ch): value
            for ch, value in sorted(result.bus_utilization.items())
        },
        "metrics": snapshot,
    }


def golden_document() -> Dict[str, object]:
    """The full grid as one fixture document."""
    return {
        "mix": MIX,
        "horizon": HORIZON,
        "seed": SEED,
        "target_insts": TARGET_INSTS,
        "runs": {spec[0]: run_grid_spec(spec) for spec in GRID},
    }
