"""The objective layer: a parameter point → campaign → scalar score.

One :class:`CampaignObjective` binds a base approach, a mix set, and a
full evaluation horizon. Evaluating a :class:`TrialPoint` then means:

1. fold the point's policy/scheduler params into a **parameterized
   approach name** (``dbp@epoch_cycles=20000,...``) and its OS/migration
   params into the RunSpec's SystemConfig;
2. plan one RunSpec per mix (:meth:`CampaignSpec.plan`) and push them
   through the supervised campaign executor against the content-addressed
   store —
   a repeated point is therefore a set of cache hits, not simulations;
3. geomean WS/MS/HS across the mixes and scalarize per the chosen
   objective (higher is always better for the searcher).

The empty point (the paper defaults) maps to the *bare* approach name,
so the baseline evaluation shares store entries with every ordinary
campaign that ever ran the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign.executor import execute
from ..campaign.spec import CampaignSpec, RunSpec
from ..campaign.store import ResultStore
from ..config import SystemConfig
from ..core.integration import get_approach
from ..errors import ConfigError
from ..workloads import resolve_mix
from .searchers import TrialPoint
from .space import ParameterSpace, approach_space, parameterized_name, split_point

__all__ = [
    "OBJECTIVES",
    "CampaignObjective",
    "TrialResult",
    "scalarize",
]

#: Scalarized objectives (all maximized by the searchers). ``balanced``
#: is the paper's stated goal — throughput *and* fairness — as the ratio
#: of weighted speedup to maximum slowdown.
OBJECTIVES: Tuple[str, ...] = ("balanced", "ws", "hs", "ms")


def scalarize(objective: str, ws: float, ms: float, hs: float) -> float:
    """Fold the three headline metrics into one higher-is-better score."""
    if objective == "ws":
        return ws
    if objective == "hs":
        return hs
    if objective == "ms":
        return -ms
    if objective == "balanced":
        return ws / ms
    known = ", ".join(OBJECTIVES)
    raise ConfigError(f"unknown objective {objective!r}; known: {known}")


def _geomean(values: Sequence[float]) -> float:
    from ..results.views import geomean

    return geomean(list(values))


@dataclass
class TrialResult:
    """One evaluated trial: the point, its metrics, and its score."""

    point: TrialPoint
    approach: str
    horizon: int
    ws: Optional[float] = None
    ms: Optional[float] = None
    hs: Optional[float] = None
    score: Optional[float] = None
    status: str = "ok"  # "ok" | "failed"
    error: Optional[str] = None
    cached: int = 0
    executed: int = 0
    wall_clock: float = 0.0
    #: Non-default OS/migration overrides applied through the config.
    osmm_params: Dict[str, object] = field(default_factory=dict)

    @property
    def is_default(self) -> bool:
        return not self.point.params

    def as_row(self) -> Dict[str, object]:
        return {
            "trial_id": self.point.trial_id,
            "params": self.point.params_dict(),
            "approach": self.approach,
            "horizon": self.horizon,
            "ws": self.ws,
            "ms": self.ms,
            "hs": self.hs,
            "score": self.score,
            "status": self.status,
            "error": self.error,
            "cached": self.cached,
            "executed": self.executed,
            "wall_clock": self.wall_clock,
        }


class CampaignObjective:
    """Scores parameter points by running them through the campaign grid."""

    def __init__(
        self,
        approach: str,
        mixes: Sequence[str],
        objective: str = "balanced",
        horizon: int = 400_000,
        seed: int = 1,
        config: Optional[SystemConfig] = None,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        target_insts: int = 4_000_000,
        retries: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        if "@" in approach:
            raise ConfigError(
                "tune the base approach; parameter points come from the "
                f"search (got {approach!r})"
            )
        if not mixes:
            raise ConfigError("the objective needs at least one mix")
        scalarize(objective, 1.0, 1.0, 1.0)  # validate the name early
        self.base = get_approach(approach)
        self.space: ParameterSpace = approach_space(self.base)
        self.mixes = [resolve_mix(name) for name in mixes]
        self.objective = objective
        self.horizon = horizon
        self.seed = seed
        self.config = config if config is not None else SystemConfig()
        self.store = store
        self.jobs = jobs
        self.target_insts = target_insts
        self.retries = retries
        self.timeout = timeout

    # ------------------------------------------------------------------
    def specs_for(self, point: TrialPoint) -> Tuple[List[RunSpec], str, Dict[str, object]]:
        """The point's run plan, parameterized name, and osmm overrides."""
        layers = split_point(self.space, point.params_dict())
        name_params = {**layers["policy"], **layers["scheduler"]}
        name = parameterized_name(self.base.name, name_params)
        config = self.config
        if layers["osmm"]:
            config = replace(
                config, osmm=replace(config.osmm, **layers["osmm"])
            )
        specs = CampaignSpec(
            mixes=tuple(mix.name for mix in self.mixes),
            approaches=(name,),
            seeds=(self.seed,),
            horizons=(self.horizon,),
            config=config,
            target_insts=self.target_insts,
        ).plan()
        return specs, name, layers["osmm"]

    def evaluate(self, point: TrialPoint) -> TrialResult:
        """Run (or fetch) the point's grid and score it."""
        specs, name, osmm_params = self.specs_for(point)
        campaign = execute(
            specs,
            jobs=self.jobs,
            store=self.store,
            retries=self.retries,
            timeout=self.timeout,
        )
        result = TrialResult(
            point=point,
            approach=name,
            horizon=self.horizon,
            cached=len(campaign.cached),
            executed=len(campaign.executed),
            wall_clock=campaign.wall_clock,
            osmm_params=dict(osmm_params),
        )
        if campaign.failed:
            first = campaign.failed[0]
            result.status = "failed"
            result.error = f"{first.spec.label}: {first.error}"
            return result
        summaries = [
            outcome.result.metrics.summary for outcome in campaign.outcomes
        ]
        result.ws = _geomean([s.weighted_speedup for s in summaries])
        result.ms = _geomean([s.max_slowdown for s in summaries])
        result.hs = _geomean([s.harmonic_speedup for s in summaries])
        result.score = scalarize(
            self.objective, result.ws, result.ms, result.hs
        )
        return result

    def default_point(self) -> TrialPoint:
        """Trial 0: the paper defaults (the baseline)."""
        return TrialPoint(trial_id=0, params=())
