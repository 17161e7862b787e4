"""Dynamic Bank Partitioning — the paper's primary contribution.

Each epoch DBP:

1. reads the shared runtime profile (MPKI / RBH / BLP per thread),
2. estimates each thread's bank demand (:mod:`repro.core.demand`),
3. pools memory-non-intensive threads onto a small shared color set (they
   rarely conflict, and dedicating banks to them wastes bank-level
   parallelism the intensive threads could use),
4. divides the remaining colors among intensive threads proportionally to
   demand (largest-remainder, at least one color each), preferring each
   thread's previously-owned colors to minimize recoloring churn, and
5. applies the new constraints, migrating a budget of hot misplaced pages.

Before the first profile exists, DBP starts from the equal split (the same
cold-start the paper's EBP baseline uses), so the first epoch is never
worse than EBP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..baselines.base import PartitionContext, PartitionPolicy, register_policy
from ..baselines.equal import EqualBankPartitioning
from ..errors import ConfigError
from ..memctrl.schedulers.base import ProfileSnapshot
from ..utils import largest_remainder_shares
from .demand import BankDemandEstimator, DemandConfig


@dataclass(frozen=True)
class DBPConfig:
    """All DBP knobs in one place (swept by the sensitivity benches)."""

    epoch_cycles: int = 25_000
    demand: DemandConfig = field(default_factory=DemandConfig)
    #: Colors reserved for the non-intensive pool when it exists, at minimum.
    min_pool_colors: int = 1
    #: If False, non-intensive threads keep dedicated colors (ablation).
    pool_non_intensive: bool = True
    #: EWMA weight of the previous epoch's demand (0 = no smoothing). Damps
    #: allocation flapping when a thread's measured BLP is noisy.
    demand_smoothing: float = 0.5
    #: Keep the current allocation when no thread's target share differs
    #: from its current share by more than the hysteresis band.
    #: Repartitioning has a real cost (page migration), so marginal
    #: rebalances are skipped. The band is
    #: ``max(hysteresis_colors, total_colors * hysteresis_fraction)`` —
    #: one color out of 16 is marginal in a way one color out of 8 is not.
    hysteresis_colors: int = 1
    hysteresis_fraction: float = 0.125

    def __post_init__(self) -> None:
        if self.epoch_cycles < 1:
            raise ConfigError("epoch_cycles must be >= 1")
        if self.min_pool_colors < 1:
            raise ConfigError("min_pool_colors must be >= 1")
        if not 0.0 <= self.demand_smoothing < 1.0:
            raise ConfigError("demand_smoothing must be in [0, 1)")
        if self.hysteresis_colors < 0:
            raise ConfigError("hysteresis_colors must be >= 0")
        if not 0 <= self.hysteresis_fraction < math.inf:
            raise ConfigError("hysteresis_fraction must be finite and >= 0")


@register_policy
class DynamicBankPartitioning(PartitionPolicy):
    """Demand-driven bank-color allocation, repartitioned every epoch."""

    name = "dbp"

    def __init__(self, config: DBPConfig = DBPConfig()) -> None:
        self.config = config
        self.epoch_cycles = config.epoch_cycles
        self.estimator = BankDemandEstimator(config.demand)
        self.last_allocation: Dict[int, List[int]] = {}
        #: Smoothed demand behind the latest allocation, JSON-friendly:
        #: {thread_id: {"intensive": bool, "banks": int}} (telemetry reads it).
        self.last_demands: Dict[int, Dict[str, object]] = {}
        self._smoothed_demand: Dict[int, float] = {}
        self.stat_repartitions = 0
        self.stat_pages_migrated = 0

    # -- tunables protocol ---------------------------------------------
    @classmethod
    def tunables(cls):
        """The DBP knobs a search may move (paper defaults, sane bounds)."""
        from ..tuner.space import Tunable

        return (
            Tunable(
                "epoch_cycles", "int", 25_000, low=5_000, high=200_000,
                log=True, description="repartitioning period (CPU cycles)",
            ),
            Tunable(
                "demand_smoothing", "float", 0.5, low=0.0, high=0.95,
                description="EWMA weight of the previous epoch's demand",
            ),
            Tunable(
                "hysteresis_colors", "int", 1, low=0, high=4,
                description="minimum per-thread color delta worth migrating",
            ),
            Tunable(
                "hysteresis_fraction", "float", 0.125, low=0.0, high=0.5,
                description="hysteresis band as a fraction of total colors",
            ),
            Tunable(
                "min_pool_colors", "int", 1, low=1, high=4,
                description="colors reserved for the non-intensive pool",
            ),
            Tunable(
                "demand.low_mpki_threshold", "float", 1.0, low=0.1,
                high=10.0, log=True,
                description="MPKI below which a thread is non-intensive",
            ),
            Tunable(
                "demand.blp_scale", "float", 1.5, low=0.5, high=4.0,
                description="banks demanded per unit of measured BLP",
            ),
            Tunable(
                "demand.high_rbh_threshold", "float", 0.85, low=0.5,
                high=1.0,
                description="row-buffer hit rate that deducts bank demand",
            ),
        )

    @classmethod
    def from_tunables(cls, values: Dict[str, object]) -> Dict[str, object]:
        """Constructor params from a flat tunable point.

        ``demand.*`` names land on the nested :class:`DemandConfig`;
        everything else on :class:`DBPConfig`. Unnamed knobs keep their
        paper defaults, and both dataclasses re-validate on construction.
        """
        demand_kwargs: Dict[str, object] = {}
        config_kwargs: Dict[str, object] = {}
        for name, value in values.items():
            if name.startswith("demand."):
                demand_kwargs[name.split(".", 1)[1]] = value
            else:
                config_kwargs[name] = value
        if demand_kwargs:
            config_kwargs["demand"] = DemandConfig(**demand_kwargs)
        return {"config": DBPConfig(**config_kwargs)}

    # ------------------------------------------------------------------
    def initialize(self, context: PartitionContext) -> None:
        assignment = EqualBankPartitioning.compute_assignment(
            context.num_threads, context.total_bank_colors
        )
        for thread_id, colors in assignment.items():
            context.apply_bank_colors(thread_id, colors, migrate=False)
        self.last_allocation = assignment

    def on_epoch(self, snapshot: ProfileSnapshot, context: PartitionContext) -> None:
        allocation = self.compute_allocation(snapshot, context)
        if self._within_hysteresis(allocation, context.total_bank_colors):
            self.stat_repartitions += 1
            return
        for thread_id, colors in allocation.items():
            if set(colors) != set(self.last_allocation.get(thread_id, [])):
                self.stat_pages_migrated += context.apply_bank_colors(
                    thread_id, colors
                )
        self.last_allocation = allocation
        self.stat_repartitions += 1

    # ------------------------------------------------------------------
    def compute_allocation(
        self, snapshot: ProfileSnapshot, context: PartitionContext
    ) -> Dict[int, List[int]]:
        """Pure function from profiles to a color set per thread."""
        num_threads = context.num_threads
        total_colors = context.total_bank_colors
        demands = self._smooth(self.estimator.estimate(snapshot, num_threads))
        self.last_demands = {
            d.thread_id: {"intensive": d.intensive, "banks": d.banks}
            for d in demands.values()
        }
        intensive = [d for d in demands.values() if d.intensive]
        pooled = [d for d in demands.values() if not d.intensive]
        if not self.config.pool_non_intensive:
            # Ablation: no pooling — every thread owns dedicated colors
            # (non-intensive ones with an effective demand of one bank).
            intensive = list(demands.values())
            pooled = []
        if not intensive:
            return {t: list(range(total_colors)) for t in range(num_threads)}
        shares = self._color_shares(intensive, pooled, total_colors)
        return self._assign_colors(intensive, pooled, shares, total_colors)

    def _within_hysteresis(
        self, allocation: Dict[int, List[int]], total_colors: int
    ) -> bool:
        """True when the new targets are too close to the current split
        to justify paying the migration cost."""
        if not self.last_allocation:
            return False
        band = max(
            self.config.hysteresis_colors,
            int(total_colors * self.config.hysteresis_fraction),
        )
        for thread_id, colors in allocation.items():
            current = self.last_allocation.get(thread_id)
            if current is None:
                return False
            if abs(len(colors) - len(current)) > band:
                return False
        return True

    def _smooth(self, demands: Dict) -> Dict:
        """EWMA-smooth bank demands across epochs to damp flapping."""
        alpha = self.config.demand_smoothing
        if alpha == 0.0:
            return demands
        from .demand import ThreadDemand

        smoothed: Dict[int, ThreadDemand] = {}
        for thread_id, demand in demands.items():
            if not demand.intensive:
                self._smoothed_demand.pop(thread_id, None)
                smoothed[thread_id] = demand
                continue
            previous = self._smoothed_demand.get(thread_id, float(demand.banks))
            value = alpha * previous + (1.0 - alpha) * demand.banks
            self._smoothed_demand[thread_id] = value
            smoothed[thread_id] = ThreadDemand(
                thread_id, True, max(1, round(value))
            )
        return smoothed

    def _color_shares(
        self, intensive: List, pooled: List, total_colors: int
    ) -> Dict[int, int]:
        """Integer color counts per intensive thread (plus the pool)."""
        pool_size = 0
        if pooled:
            total_demand = sum(max(1, d.banks) for d in intensive)
            leftover = total_colors - total_demand
            max_pool = total_colors - len(intensive)
            pool_size = max(self.config.min_pool_colors, leftover)
            pool_size = min(pool_size, max_pool)
        colors_for_intensive = total_colors - pool_size
        weights = [max(1, d.banks) for d in intensive]
        shares = largest_remainder_shares(weights, colors_for_intensive)
        # Every intensive thread needs at least one color.
        for index in range(len(shares)):
            while shares[index] == 0:
                donor = max(range(len(shares)), key=lambda i: shares[i])
                if shares[donor] <= 1:
                    raise ConfigError(
                        "not enough bank colors for one per intensive thread"
                    )
                shares[donor] -= 1
                shares[index] += 1
        result = {d.thread_id: s for d, s in zip(intensive, shares)}
        result["pool"] = pool_size
        return result

    def _assign_colors(
        self,
        intensive: List,
        pooled: List,
        shares: Dict,
        total_colors: int,
    ) -> Dict[int, List[int]]:
        """Map share counts to concrete colors, minimizing recoloring."""
        unassigned: Set[int] = set(range(total_colors))
        allocation: Dict[int, List[int]] = {}
        # Largest shares pick first so big partitions keep their old colors.
        order = sorted(
            intensive,
            key=lambda d: (-shares[d.thread_id], d.thread_id),
        )
        for demand in order:
            want = shares[demand.thread_id]
            previous = [
                c
                for c in self.last_allocation.get(demand.thread_id, [])
                if c in unassigned
            ]
            chosen = previous[:want]
            if len(chosen) < want:
                fresh = sorted(unassigned - set(chosen))
                chosen.extend(fresh[: want - len(chosen)])
            unassigned.difference_update(chosen)
            allocation[demand.thread_id] = sorted(chosen)
        pool_colors = sorted(unassigned)
        if pooled:
            if not pool_colors:
                raise ConfigError("pool ended up with zero colors")
            for demand in pooled:
                allocation[demand.thread_id] = pool_colors
        elif pool_colors:
            # No pool: hand leftovers to the highest-demand thread.
            top = order[0].thread_id
            allocation[top] = sorted(allocation[top] + pool_colors)
        return allocation
