"""Bank-demand estimation from runtime profiles.

This is the decision half of DBP's key principle: "profile threads' memory
characteristics at run-time and estimate their demands for bank amount". A
thread's useful bank count is driven by its bank-level parallelism — giving
a thread more banks than it has concurrent requests buys nothing, while
giving it fewer serializes its misses. Two corrections apply:

* memory-non-intensive threads (MPKI below a threshold) are not worth
  dedicating banks to at all — they are pooled (the classification);
* streaming threads with very high row-buffer locality keep rows open and
  drain through few banks, so their raw BLP overstates their need.

The estimator is deliberately configurable so the ablation bench (F9) can
switch off each ingredient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigError
from ..memctrl.schedulers.base import ProfileSnapshot
from ..utils import ceil_div


@dataclass(frozen=True)
class DemandConfig:
    """Knobs of the bank-demand estimator.

    ``mode`` selects the estimator variant:

    * ``"full"``  — BLP-proportional with the high-RBH deduction (DBP).
    * ``"mpki"``  — MPKI-proportional (a strawman the ablation disproves).

    BLP-proportional without the RBH correction is ``"full"`` with
    ``high_rbh_threshold=1.0``: a row-buffer hit rate never exceeds 1.
    """

    low_mpki_threshold: float = 1.0
    blp_scale: float = 1.5
    high_rbh_threshold: float = 0.85
    max_banks_per_thread: int = 16
    mode: str = "full"

    def __post_init__(self) -> None:
        if not 0 <= self.low_mpki_threshold < math.inf:
            raise ConfigError("low_mpki_threshold must be finite and >= 0")
        if not 0 < self.blp_scale < math.inf:
            raise ConfigError("blp_scale must be finite and positive")
        if not 0.0 < self.high_rbh_threshold <= 1.0:
            raise ConfigError("high_rbh_threshold must be in (0, 1]")
        if self.max_banks_per_thread < 1:
            raise ConfigError("max_banks_per_thread must be >= 1")
        if self.mode not in ("full", "mpki"):
            raise ConfigError("mode must be 'full' or 'mpki'")


@dataclass(frozen=True)
class ThreadDemand:
    """Estimated bank demand of one thread for the next epoch."""

    thread_id: int
    intensive: bool
    banks: int  # meaningful only when intensive


class BankDemandEstimator:
    """Estimates per-thread bank demands from a profile snapshot."""

    def __init__(self, config: DemandConfig) -> None:
        self.config = config

    def classify_intensive(self, mpki: float) -> bool:
        """True when a thread is memory-intensive enough to own banks."""
        return mpki >= self.config.low_mpki_threshold

    def estimate(self, snapshot: ProfileSnapshot, num_threads: int) -> Dict[int, ThreadDemand]:
        """Demand for every thread, keyed by thread id."""
        demands: Dict[int, ThreadDemand] = {}
        for thread_id in range(num_threads):
            profile = snapshot.profile(thread_id)
            intensive = self.classify_intensive(profile.mpki)
            if not intensive:
                demands[thread_id] = ThreadDemand(thread_id, False, 0)
                continue
            banks = self._estimate_banks(profile)
            demands[thread_id] = ThreadDemand(thread_id, True, banks)
        return demands

    def _estimate_banks(self, profile) -> int:
        config = self.config
        if config.mode == "mpki":
            # Strawman: scale by intensity. Over-serves streaming threads.
            raw = ceil_div(int(profile.mpki), 10) + 1
        else:
            raw = max(1, int(profile.blp * config.blp_scale + 0.999))
            if profile.rbh > config.high_rbh_threshold:
                # Streaming: rows stay open, so the headroom factor is
                # wasted — but measured BLP itself is a real floor (the
                # thread does keep that many banks busy).
                raw = max(1, raw // 2, int(profile.blp + 0.999))
        return min(raw, config.max_banks_per_thread)
