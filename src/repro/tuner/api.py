"""The tuning loop: strategy + objective + persistence in one call.

:func:`run_study` is the subsystem's entry point (the CLI's ``tune run``
is a thin wrapper): it evaluates the paper-default point first (trial 0,
the frontier baseline), then drives the chosen searcher through its
budget, persisting every trial into the ``tuning_trials`` table of the
store's SQLite index as it lands. Study names are deterministic by
default — re-running the same command upserts the same rows and serves
every simulation from the content-addressed store.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..campaign.store import ResultStore, default_store_dir
from ..config import SystemConfig
from ..results.db import ResultIndex, index_path_for
from .objective import CampaignObjective, TrialResult
from .searchers import Searcher, make_searcher
from .trials import clear_study, record_trial

__all__ = ["StudyResult", "run_study", "study_name"]

ProgressFn = Callable[[TrialResult], None]


def study_name(
    approach: str, strategy: str, objective: str, seed: int
) -> str:
    """The deterministic default study name (stable across re-runs)."""
    return f"{approach}-{strategy}-{objective}-s{seed}"


@dataclass
class StudyResult:
    """Everything one tuning study produced."""

    study: str
    strategy: str
    objective: str
    base_approach: str
    mixes: List[str]
    seed: int
    trials: List[TrialResult] = field(default_factory=list)
    wall_clock: float = 0.0

    @property
    def best(self) -> Optional[TrialResult]:
        """Best-scoring trial."""
        scored = [t for t in self.trials if t.score is not None]
        return max(scored, key=lambda t: t.score) if scored else None

    @property
    def total_runs(self) -> int:
        return sum(t.cached + t.executed for t in self.trials)

    @property
    def cache_hits(self) -> int:
        return sum(t.cached for t in self.trials)

    @property
    def cache_hit_rate(self) -> float:
        total = self.total_runs
        return self.cache_hits / total if total else 0.0

    def trial_row(self, trial: TrialResult) -> Dict[str, object]:
        """The ``tuning_trials`` row of one trial of this study."""
        row = trial.as_row()
        row.update(
            study=self.study,
            strategy=self.strategy,
            objective=self.objective,
            base_approach=self.base_approach,
            mixes=json.dumps(self.mixes),
            seed=self.seed,
            params=json.dumps(trial.point.params_dict(), sort_keys=True),
        )
        return row


def run_study(
    approach: str = "dbp",
    strategy: str = "tpe",
    budget: int = 12,
    objective: str = "balanced",
    seed: int = 1,
    mixes: Sequence[str] = ("M4", "M7"),
    horizon: int = 400_000,
    config: Optional[SystemConfig] = None,
    store: Optional[ResultStore] = None,
    index: Optional[ResultIndex] = None,
    jobs: int = 1,
    study: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
) -> StudyResult:
    """Run one seeded tuning study end to end and persist its trials.

    The default point always evaluates first so the frontier report can
    compare tuned points against the paper baseline.
    ``budget`` counts *searched* trials only; the baseline rides free.
    With no ``store`` the default store location is used — tuning without
    a store would re-simulate every repeated point.
    """
    started = time.perf_counter()
    if store is None:
        store = ResultStore(default_store_dir())
    if index is None:
        index = ResultIndex(index_path_for(store.root))
    campaign_objective = CampaignObjective(
        approach,
        mixes,
        objective=objective,
        horizon=horizon,
        seed=seed,
        config=config,
        store=store,
        jobs=jobs,
        retries=retries,
        timeout=timeout,
    )
    searcher: Searcher = make_searcher(
        strategy, campaign_objective.space, budget, seed
    )
    result = StudyResult(
        study=study or study_name(approach, strategy, objective, seed),
        strategy=strategy,
        objective=objective,
        base_approach=approach,
        mixes=[m.name for m in campaign_objective.mixes],
        seed=seed,
    )
    clear_study(index, result.study)

    def _record(trial: TrialResult) -> None:
        result.trials.append(trial)
        record_trial(index, result.trial_row(trial))
        if progress is not None:
            progress(trial)

    _record(campaign_objective.evaluate(campaign_objective.default_point()))
    while True:
        point = searcher.propose()
        if point is None:
            break
        trial = campaign_objective.evaluate(point)
        searcher.observe(point, trial.score)
        _record(trial)
    result.wall_clock = time.perf_counter() - started
    return result
