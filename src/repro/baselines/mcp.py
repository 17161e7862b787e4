"""Memory Channel Partitioning (Muralidhara et al., MICRO 2011).

MCP maps the data of threads likely to interfere onto *different channels*:
each epoch, threads are classified by memory intensity (MPKI) and, among the
intensive ones, by row-buffer locality. The two intensive groups receive
disjoint channel sets sized proportionally to their aggregate bandwidth
demand, and each intensive thread is then assigned one preferred channel
within its group's set, balancing load greedily. Low-intensity threads keep
all channels (their light traffic interferes little; this reconstruction is
documented in DESIGN.md).

The behaviour the DBP abstract criticizes emerges directly from this
construction: intensive threads get squeezed onto channel subsets together,
which physically concentrates their contention and inflates their slowdown —
hence MCP's weak fairness in experiment F4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..errors import ConfigError
from ..memctrl.schedulers.base import ProfileSnapshot
from ..utils import largest_remainder_shares
from .base import PartitionContext, PartitionPolicy, register_policy


@dataclass(frozen=True)
class MCPConfig:
    """Classification thresholds for MCP."""

    low_mpki_threshold: float = 1.0
    high_rbh_threshold: float = 0.5
    epoch_cycles: int = 25_000

    def __post_init__(self) -> None:
        if not 0 <= self.low_mpki_threshold < math.inf:
            raise ConfigError("low_mpki_threshold must be finite and >= 0")
        if not 0.0 < self.high_rbh_threshold <= 1.0:
            raise ConfigError("high_rbh_threshold must be in (0, 1]")
        if self.epoch_cycles < 1:
            raise ConfigError("epoch_cycles must be >= 1")


@register_policy
class MemoryChannelPartitioning(PartitionPolicy):
    """Epoch-based channel partitioning by intensity and locality."""

    name = "mcp"

    def __init__(self, config: MCPConfig = MCPConfig()) -> None:
        self.config = config
        self.epoch_cycles = config.epoch_cycles
        self.last_assignment: Dict[int, List[int]] = {}

    def initialize(self, context: PartitionContext) -> None:
        # Before the first profile, behave like the shared baseline.
        all_channels = list(range(context.total_channels))
        all_colors = list(range(context.total_bank_colors))
        for thread_id in range(context.num_threads):
            context.apply_channels(thread_id, all_channels, migrate=False)
            context.apply_bank_colors(thread_id, all_colors, migrate=False)

    # ------------------------------------------------------------------
    def on_epoch(self, snapshot: ProfileSnapshot, context: PartitionContext) -> None:
        assignment = self.compute_assignment(snapshot, context)
        for thread_id, channels in assignment.items():
            context.apply_channels(thread_id, channels)
        self.last_assignment = assignment

    def compute_assignment(
        self, snapshot: ProfileSnapshot, context: PartitionContext
    ) -> Dict[int, List[int]]:
        """Channel set per thread for the coming epoch."""
        num_channels = context.total_channels
        all_channels = list(range(num_channels))
        profiles = [
            snapshot.profile(t) for t in range(context.num_threads)
        ]
        low = [p for p in profiles if p.mpki < self.config.low_mpki_threshold]
        intensive = [
            p for p in profiles if p.mpki >= self.config.low_mpki_threshold
        ]
        assignment: Dict[int, List[int]] = {
            p.thread_id: all_channels for p in low
        }
        if not intensive or num_channels < 2:
            for p in intensive:
                assignment[p.thread_id] = all_channels
            return assignment
        high_rbh = [p for p in intensive if p.rbh >= self.config.high_rbh_threshold]
        low_rbh = [p for p in intensive if p.rbh < self.config.high_rbh_threshold]
        groups = [g for g in (high_rbh, low_rbh) if g]
        demands = [sum(p.bandwidth for p in g) or len(g) for g in groups]
        shares = largest_remainder_shares(demands, num_channels)
        # Every non-empty group gets at least one channel.
        for index in range(len(shares)):
            while shares[index] == 0:
                donor = max(range(len(shares)), key=lambda i: shares[i])
                shares[donor] -= 1
                shares[index] += 1
        start = 0
        for group, share in zip(groups, shares):
            group_channels = all_channels[start : start + share]
            start += share
            self._assign_within_group(group, group_channels, assignment)
        return assignment

    @staticmethod
    def _assign_within_group(
        group: List, channels: List[int], assignment: Dict[int, List[int]]
    ) -> None:
        """Greedy per-thread preferred-channel choice balancing bandwidth."""
        load = {channel: 0.0 for channel in channels}
        for profile in sorted(group, key=lambda p: (-p.bandwidth, p.thread_id)):
            channel = min(channels, key=lambda c: (load[c], c))
            load[channel] += profile.bandwidth or 1e-9
            assignment[profile.thread_id] = [channel]
