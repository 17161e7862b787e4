"""The campaign subsystem's high-level entry points.

* :func:`run_campaign` — plan-and-execute for CLI/script use, with the
  persistent store on by default.
* :func:`sweep_metrics` — the engine behind every grid entry of the
  experiment catalog: executes a (mix x approach) grid through a Runner's
  scope, fanning out over ``runner.jobs`` worker processes and adopting
  every result into the Runner's in-memory cache so later figures that
  share runs (e.g. F3 after F2) stay free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import ExperimentError
from ..workloads import get_mix
from .executor import CampaignResult, ProgressFn, execute
from .spec import CampaignSpec, RunSpec, plan_sweep
from .store import ResultStore, default_store_dir


def run_campaign(
    plan: Union[CampaignSpec, Sequence[RunSpec]],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    persist: bool = True,
    backoff: float = 0.25,
    quarantine_after: int = 2,
    max_pool_respawns: int = 3,
    safepoint_every: Optional[int] = None,
    checkpoint_dir: Optional[object] = None,
    faults: Optional[object] = None,
    spans: Optional[object] = None,
) -> CampaignResult:
    """Execute a campaign spec (or an explicit plan) and return outcomes.

    With ``persist`` (the default) results land in ``store`` — created at
    :func:`~repro.campaign.store.default_store_dir` when not given — so a
    re-run of the same campaign is served from disk and an interrupted one
    resumes where it stopped. The supervision knobs (``backoff``,
    ``quarantine_after``, ``max_pool_respawns``, ``safepoint_every``,
    ``checkpoint_dir``, ``faults``) and the ``spans`` trace-output path
    pass straight through to :func:`~repro.campaign.executor.execute`.
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
        backoff=backoff,
        quarantine_after=quarantine_after,
        max_pool_respawns=max_pool_respawns,
        safepoint_every=safepoint_every,
        checkpoint_dir=checkpoint_dir,
        faults=faults,
        spans=spans,
    )


def sweep_metrics(
    runner,
    mixes: Sequence[str],
    approaches: Sequence[str],
) -> Dict[str, Dict[str, List[float]]]:
    """Run mixes x approaches through ``runner``; per-approach WS/MS/HS lists.

    When ``runner.jobs <= 1`` it *is* the serial path (same Runner, same
    order), so metrics are bit-identical; with more jobs the missing cells
    fan out through the campaign executor and the Runner adopts the
    results.
    """
    out: Dict[str, Dict[str, List[float]]] = {
        approach: {"ws": [], "ms": [], "hs": []} for approach in approaches
    }
    if runner.jobs > 1:
        missing = [
            spec
            for spec in plan_sweep(runner, mixes, approaches)
            if runner.cached_run(spec.apps, spec.approach) is None
        ]
        if missing:
            campaign = execute(
                missing, jobs=runner.jobs, store=runner.store
            )
            failures = campaign.failed + campaign.quarantined
            if failures:
                first = failures[0]
                raise ExperimentError(
                    f"{len(failures)} of {len(missing)} sweep runs "
                    f"failed or were quarantined; "
                    f"first: {first.spec.label} — {first.error}"
                )
            for outcome in campaign.outcomes:
                runner.adopt_result(
                    outcome.spec.apps, outcome.spec.approach, outcome.result
                )
    for mix_name in mixes:
        mix = get_mix(mix_name)
        for approach in approaches:
            metrics = runner.run_mix(mix, approach).metrics
            out[approach]["ws"].append(metrics.weighted_speedup)
            out[approach]["ms"].append(metrics.max_slowdown)
            out[approach]["hs"].append(metrics.harmonic_speedup)
    return out
