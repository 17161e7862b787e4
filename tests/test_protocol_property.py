"""Property-based full-stack protocol tests.

Hypothesis drives randomized workloads through the complete system —
cores, caches, page tables, controller, device — under every scheduler and
partitioning approach, with the independent protocol validator attached.
Any timing violation anywhere in the stack fails the test.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.dbp import DBPConfig, DynamicBankPartitioning
from repro.baselines import (
    EqualBankPartitioning,
    MemoryChannelPartitioning,
    SharedPolicy,
)
from repro.config import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMOrganization,
    OSConfig,
    SystemConfig,
)
from repro.dram.commands import CommandType
from repro.sim.system import System
from repro.workloads import AppProfile, generate_trace

_PROFILE_STRATEGY = st.tuples(
    st.floats(0.5, 40.0),  # mpki
    st.floats(0.0, 0.95),  # row locality
    st.integers(1, 6),  # streams
    st.floats(0.0, 0.6),  # write fraction
    st.integers(1, 8),  # burst
)


def build_config(num_cores, scheduler):
    org = DRAMOrganization(
        channels=2,
        ranks_per_channel=1,
        banks_per_rank=4,
        rows_per_bank=128,
        row_size_bytes=8192,
    )
    return SystemConfig(
        num_cores=num_cores,
        clock_ratio=2,
        dram_preset="DDR3-1066",
        organization=org,
        core=CoreConfig(width=4, rob_size=64, mshrs=8),
        cache=CacheConfig(size_bytes=8 * 1024, associativity=4),
        controller=ControllerConfig(
            read_queue_depth=16,
            write_queue_depth=16,
            write_high_watermark=12,
            write_low_watermark=4,
            scheduler=scheduler,
            scheduler_params=(
                {"quantum_cycles": 4_000} if scheduler in ("tcm", "atlas") else {}
            ),
        ),
        osmm=OSConfig(migration_budget_pages=2, migration_lines_per_page=1),
    )


def build_traces(profiles, seed):
    traces = []
    for index, (mpki, locality, streams, wfrac, burst) in enumerate(profiles):
        profile = AppProfile(
            f"rand{index}", mpki, locality, streams, wfrac, 1, burst
        )
        traces.append(
            generate_trace(profile, seed=seed, target_insts=200_000)
        )
    return traces


def assert_cas_conservation(system):
    """Every CAS on a channel's bus is one served request or one migration
    copy, and the per-thread counts sum to the channel totals."""
    for channel, controller in zip(system.channels, system.controllers):
        kinds = [command.kind for command in channel.command_log]
        stats = controller.stats
        assert kinds.count(CommandType.READ) == (
            stats.reads_served + stats.migration_reads
        )
        assert kinds.count(CommandType.WRITE) == (
            stats.writes_served + stats.migration_writes
        )
        assert sum(stats.per_thread_reads.values()) == stats.reads_served
        assert sum(stats.per_thread_writes.values()) == stats.writes_served


POLICIES = {
    "shared": SharedPolicy,
    "ebp": EqualBankPartitioning,
    "mcp": MemoryChannelPartitioning,
    "dbp": lambda: DynamicBankPartitioning(
        DBPConfig(epoch_cycles=4_000, hysteresis_colors=0)
    ),
}


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    profiles=st.lists(_PROFILE_STRATEGY, min_size=1, max_size=3),
    seed=st.integers(0, 100),
    scheduler=st.sampled_from(["fcfs", "frfcfs", "parbs", "atlas", "tcm"]),
    policy_name=st.sampled_from(list(POLICIES)),
)
def test_random_workloads_are_protocol_legal(profiles, seed, scheduler, policy_name):
    config = build_config(len(profiles), scheduler)
    traces = build_traces(profiles, seed)
    policy = POLICIES[policy_name]()
    system = System(
        config, traces, horizon=12_000, policy=policy, validate=True
    )
    system.run()  # validate=True re-checks every command
    assert_cas_conservation(system)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 50))
def test_heavy_shared_load_is_protocol_legal(seed):
    """A saturating all-heavy workload with refresh exercises write drain,
    refresh sequencing, and queue pressure simultaneously."""
    config = build_config(3, "frfcfs")
    profile = AppProfile("sat", 45.0, 0.6, 4, 0.45, 1, 8)
    traces = [
        generate_trace(profile, seed=seed + t, target_insts=200_000)
        for t in range(3)
    ]
    system = System(
        config, traces, horizon=15_000, policy=SharedPolicy(), validate=True
    )
    system.run()
    assert_cas_conservation(system)
