"""Search strategies over a :class:`~repro.tuner.space.ParameterSpace`.

Both searchers share one ask/tell interface — :meth:`Searcher.propose`
hands out the next :class:`TrialPoint` (or ``None`` when the budget is
spent) and :meth:`Searcher.observe` feeds back the scalar score (higher
is better; ``None`` marks a failed trial). Every strategy is driven by a
private ``random.Random(seed)``, so a given (space, budget, seed) always
replays the identical trial sequence — which is what makes a re-run of a
tuning study hit the content-addressed store instead of the simulator.
Every trial runs the study's full horizon.

Strategies:

* :class:`RandomSearcher` — uniform (log-uniform where declared)
  sampling; the baseline strategy and TPE's startup phase.
* :class:`TPESearcher` — a dependency-free tree-structured Parzen
  estimator: after a random startup, observed points split into
  good/bad quantiles and candidates are drawn from a Parzen (Gaussian
  kernel) model of the good set, ranked by the good/bad density ratio.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .space import ParameterSpace, Tunable

__all__ = [
    "STRATEGIES",
    "TrialPoint",
    "Searcher",
    "RandomSearcher",
    "TPESearcher",
    "make_searcher",
]


@dataclass(frozen=True)
class TrialPoint:
    """One parameter point a searcher wants evaluated."""

    trial_id: int
    params: Tuple[Tuple[str, object], ...]

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)


def _as_items(params: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(params.items()))


def _round_sig(value: float, digits: int = 4) -> float:
    """Round to significant digits — keeps parameterized approach names
    short without meaningfully coarsening the search."""
    if value == 0.0:
        return 0.0
    scale = digits - 1 - math.floor(math.log10(abs(value)))
    return round(value, scale)


def _sample_tunable(tunable: Tunable, rng: random.Random) -> object:
    """One in-bounds value, honoring the declared scale."""
    if tunable.kind == "choice":
        return tunable.choices[rng.randrange(len(tunable.choices))]
    low = float(tunable.low)  # type: ignore[arg-type]
    high = float(tunable.high)  # type: ignore[arg-type]
    if tunable.log:
        value = math.exp(rng.uniform(math.log(low), math.log(high)))
    else:
        value = rng.uniform(low, high)
    if tunable.kind == "int":
        return max(int(tunable.low), min(int(tunable.high), int(round(value))))
    return min(high, max(low, _round_sig(value)))


class Searcher:
    """Common ask/tell interface; subclasses implement ``_next``."""

    name = "base"

    def __init__(self, space: ParameterSpace, budget: int, seed: int = 1) -> None:
        if budget < 1:
            raise ConfigError("search budget must be >= 1")
        if not len(space):
            raise ConfigError(
                f"approach {space.approach!r} declares no tunables"
            )
        self.space = space
        self.budget = budget
        self.seed = seed
        self._rng = random.Random(seed)
        self._proposed = 0
        self._observed: List[Tuple[TrialPoint, Optional[float]]] = []

    # -- interface ------------------------------------------------------
    def propose(self) -> Optional[TrialPoint]:
        """The next point to evaluate, or ``None`` when done."""
        if self._proposed >= self.budget:
            return None
        point = self._next()
        self._proposed += 1
        return point

    def observe(self, point: TrialPoint, score: Optional[float]) -> None:
        """Feed back one trial's scalar score (higher is better)."""
        self._observed.append((point, score))

    # -- subclass hooks -------------------------------------------------
    def _next(self) -> TrialPoint:
        raise NotImplementedError

    def _sample(self) -> Dict[str, object]:
        return {
            t.name: _sample_tunable(t, self._rng) for t in self.space.tunables
        }


class RandomSearcher(Searcher):
    """Pure random search — the honest baseline."""

    name = "random"

    def _next(self) -> TrialPoint:
        return TrialPoint(
            trial_id=self._proposed + 1, params=_as_items(self._sample())
        )


#: TPE's good-set quantile and the Parzen candidates drawn per proposal.
#: Its random startup is ``max(3, budget // 3)`` trials.
TPE_GAMMA = 0.25
TPE_CANDIDATES = 24


class TPESearcher(Searcher):
    """Dependency-free TPE: Parzen density ratio over good/bad trials."""

    name = "tpe"

    def _next(self) -> TrialPoint:
        trial_id = self._proposed + 1
        scored = [
            (point.params_dict(), score)
            for point, score in self._observed
            if score is not None
        ]
        n_startup = max(3, self.budget // 3)
        if self._proposed < n_startup or len(scored) < 2:
            return TrialPoint(trial_id=trial_id, params=_as_items(self._sample()))
        scored.sort(key=lambda item: -item[1])
        n_good = max(1, math.ceil(TPE_GAMMA * len(scored)))
        good = [params for params, _ in scored[:n_good]]
        bad = [params for params, _ in scored[n_good:]] or good
        best: Optional[Dict[str, object]] = None
        best_ratio = -math.inf
        for _ in range(TPE_CANDIDATES):
            candidate = {
                t.name: self._draw_from(good, t) for t in self.space.tunables
            }
            ratio = sum(
                self._log_density(candidate[t.name], good, t)
                - self._log_density(candidate[t.name], bad, t)
                for t in self.space.tunables
            )
            if ratio > best_ratio:
                best_ratio = ratio
                best = candidate
        assert best is not None
        return TrialPoint(trial_id=trial_id, params=_as_items(best))

    # -- Parzen helpers -------------------------------------------------
    @staticmethod
    def _transform(value: float, tunable: Tunable) -> float:
        return math.log(value) if tunable.log else value

    def _bandwidth(self, tunable: Tunable, count: int) -> float:
        low = self._transform(float(tunable.low), tunable)  # type: ignore[arg-type]
        high = self._transform(float(tunable.high), tunable)  # type: ignore[arg-type]
        return max(1e-9, (high - low) / math.sqrt(count + 1))

    def _draw_from(self, group: List[Dict[str, object]], tunable: Tunable) -> object:
        """Sample near a random member of ``group`` (kernel perturbation)."""
        if tunable.kind == "choice":
            counts = {c: 1.0 for c in tunable.choices}  # Laplace smoothing
            for params in group:
                counts[params[tunable.name]] = counts.get(params[tunable.name], 1.0) + 1.0
            total = sum(counts.values())
            pick = self._rng.uniform(0.0, total)
            acc = 0.0
            for choice in tunable.choices:
                acc += counts[choice]
                if pick <= acc:
                    return choice
            return tunable.choices[-1]
        center = float(
            group[self._rng.randrange(len(group))][tunable.name]  # type: ignore[arg-type]
        )
        sigma = self._bandwidth(tunable, len(group))
        value = self._rng.gauss(self._transform(center, tunable), sigma)
        if tunable.log:
            value = math.exp(value)
        low = float(tunable.low)  # type: ignore[arg-type]
        high = float(tunable.high)  # type: ignore[arg-type]
        value = min(high, max(low, value))
        if tunable.kind == "int":
            return int(round(value))
        return value

    def _log_density(
        self, value: object, group: List[Dict[str, object]], tunable: Tunable
    ) -> float:
        if tunable.kind == "choice":
            counts = {c: 1.0 for c in tunable.choices}
            for params in group:
                counts[params[tunable.name]] = counts.get(params[tunable.name], 1.0) + 1.0
            total = sum(counts.values())
            return math.log(counts[value] / total)
        x = self._transform(float(value), tunable)  # type: ignore[arg-type]
        sigma = self._bandwidth(tunable, len(group))
        acc = 0.0
        for params in group:
            center = self._transform(float(params[tunable.name]), tunable)  # type: ignore[arg-type]
            acc += math.exp(-0.5 * ((x - center) / sigma) ** 2)
        return math.log(max(acc / (len(group) * sigma), 1e-300))


STRATEGIES: Dict[str, type] = {
    cls.name: cls for cls in (RandomSearcher, TPESearcher)
}


def make_searcher(
    strategy: str, space: ParameterSpace, budget: int, seed: int = 1
) -> Searcher:
    """Instantiate a search strategy by name."""
    try:
        cls = STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ConfigError(
            f"unknown search strategy {strategy!r}; known: {known}"
        ) from None
    return cls(space, budget, seed)
