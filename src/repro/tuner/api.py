"""The tuning loop: strategy + objective + persistence in one call.

:func:`run_study` is the subsystem's entry point (the CLI's ``tune run``
is a thin wrapper): it evaluates the paper-default point first (trial 0,
the frontier baseline), then drives the chosen searcher through its
budget, rewriting the study's store document
(:mod:`~repro.tuner.studies`) as each trial lands. Study names are
deterministic by default — re-running the same command replaces the same
document and serves every simulation from the content-addressed store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..campaign.store import ResultStore, default_store_dir
from ..config import SystemConfig
from .objective import CampaignObjective, TrialResult
from .searchers import Searcher, make_searcher
from .studies import study_path, write_study

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

    def document(self) -> Dict[str, object]:
        """The study's store document, every trial so far included."""
        return {
            "study": self.study,
            "strategy": self.strategy,
            "objective": self.objective,
            "base_approach": self.base_approach,
            "mixes": list(self.mixes),
            "seed": self.seed,
            "trials": [trial.as_row() for trial in self.trials],
        }


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
    index: object = None,
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
    a store would re-simulate every repeated point. The study lives in
    that store's directory; ``index`` is accepted and ignored, since the
    run index holds no study.
    """
    started = time.perf_counter()
    if store is None:
        store = ResultStore(default_store_dir())
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
    study_path(store.root, result.study).unlink(missing_ok=True)

    def _record(trial: TrialResult) -> None:
        result.trials.append(trial)
        write_study(store.root, result.document())
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
