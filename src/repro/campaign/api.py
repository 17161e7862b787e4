"""The campaign subsystem's high-level entry points.

* :func:`run_campaign` — plan-and-execute for CLI/script use, with the
  persistent store on by default.
* :func:`sweep_metrics` — the engine behind every grid entry of the
  experiment catalog: plans a (mix x approach) grid in a Runner's scope
  and executes it like any campaign, over ``runner.jobs`` workers and
  against ``runner.store``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import ExperimentError
from .executor import CampaignResult, ProgressFn, execute
from .spec import CampaignSpec, RunSpec
from .store import ResultStore, default_store_dir


def run_campaign(
    plan: Union[CampaignSpec, Sequence[RunSpec]],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    persist: bool = True,
    faults: Optional[object] = None,
    spans: Optional[object] = None,
) -> CampaignResult:
    """Execute a campaign spec (or an explicit plan) and return outcomes.

    With ``persist`` (the default) results land in ``store`` — created at
    :func:`~repro.campaign.store.default_store_dir` when not given — so a
    re-run of the same campaign is served from disk and an interrupted one
    resumes where it stopped. The fault plan (``faults``) and the ``spans``
    trace-output path pass straight through to
    :func:`~repro.campaign.executor.execute`.
    """
    specs = plan.plan() if isinstance(plan, CampaignSpec) else list(plan)
    if persist and store is None:
        store = ResultStore(default_store_dir())
    return execute(
        specs,
        jobs=jobs,
        store=store if persist else None,
        retries=retries,
        timeout=timeout,
        progress=progress,
        faults=faults,
        spans=spans,
    )


def sweep_metrics(
    runner,
    mixes: Sequence[str],
    approaches: Sequence[str],
) -> Dict[str, Dict[str, List[float]]]:
    """Run mixes x approaches in ``runner``'s scope; per-approach WS/MS/HS.

    The grid is planned by :class:`CampaignSpec` and executed by
    :func:`execute` on ``runner.jobs`` workers against ``runner.store``,
    like any campaign. A later grid that shares cells (F3 after F2) reuses
    them only through the store. A cell that fails fails the sweep.
    """
    specs = CampaignSpec(
        mixes=tuple(mixes),
        approaches=tuple(approaches),
        seeds=(runner.seed,),
        horizons=(runner.horizon,),
        config=runner.config,
        target_insts=runner.target_insts,
        ahead_limit=runner.ahead_limit,
        validate=runner.validate,
        telemetry=runner.telemetry,
    ).plan()
    campaign = execute(specs, jobs=runner.jobs, store=runner.store)
    failures = campaign.failed
    if failures:
        first = failures[0]
        raise ExperimentError(
            f"{len(failures)} of {len(specs)} sweep runs failed; "
            f"first: {first.spec.label} — {first.error}"
        )
    out: Dict[str, Dict[str, List[float]]] = {
        approach: {"ws": [], "ms": [], "hs": []} for approach in approaches
    }
    for outcome in campaign.outcomes:
        metrics = outcome.result.metrics
        series = out[outcome.spec.approach]
        series["ws"].append(metrics.weighted_speedup)
        series["ms"].append(metrics.max_slowdown)
        series["hs"].append(metrics.harmonic_speedup)
    return out
