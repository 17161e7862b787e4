"""Partitioning baseline tests: shared, EBP, fixed, MCP."""

from types import SimpleNamespace

import pytest

from repro.baselines import (
    EqualBankPartitioning,
    FixedAllocationPolicy,
    MCPConfig,
    MemoryChannelPartitioning,
    SharedPolicy,
    make_policy,
    policy_names,
)
from repro.config import DRAMOrganization
from repro.errors import ConfigError
from repro.mapping import AddressMap
from repro.baselines.base import PartitionContext
from repro.memctrl.schedulers.base import ProfileSnapshot, ThreadProfile
from repro.osmm import ColorAwareAllocator, PageTable


def make_world(num_threads=4, colors=8, channels=2):
    org = DRAMOrganization(
        channels=channels,
        ranks_per_channel=1,
        banks_per_rank=colors,
        rows_per_bank=64,
        row_size_bytes=8192,
    )
    amap = AddressMap(org, page_size=4096)
    allocator = ColorAwareAllocator(amap)
    tables = {t: PageTable(t, allocator, amap) for t in range(num_threads)}
    return PartitionContext(
        allocator, amap, tables, None, inject_copy_traffic=lambda plan: None
    )


def prof(thread, mpki=20.0, rbh=0.5, blp=2.0, bandwidth=0.3):
    return ThreadProfile(thread, mpki, rbh, blp, bandwidth, requests=100)


def snap(*profiles):
    return ProfileSnapshot(cycle=0, threads={p.thread_id: p for p in profiles})


class TestRegistry:
    def test_registered_names(self):
        assert set(policy_names()) >= {"shared", "ebp", "dbp", "mcp", "fixed"}

    def test_make_by_name(self):
        assert isinstance(make_policy("shared"), SharedPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("banana")


class TestShared:
    def test_everything_allowed(self):
        world = make_world()
        SharedPolicy().initialize(world)
        for t in range(4):
            assert world.allocator.thread_colors(t) == frozenset(range(8))
            assert world.allocator.thread_channels(t) == frozenset(range(2))


class TestEBP:
    def test_even_split(self):
        assert EqualBankPartitioning.compute_assignment(4, 8) == {
            0: [0, 1],
            1: [2, 3],
            2: [4, 5],
            3: [6, 7],
        }

    def test_remainder_to_early_threads(self):
        assignment = EqualBankPartitioning.compute_assignment(3, 8)
        assert [len(v) for v in assignment.values()] == [3, 3, 2]
        flat = [c for v in assignment.values() for c in v]
        assert sorted(flat) == list(range(8))

    def test_more_threads_than_colors_rejected(self):
        with pytest.raises(ConfigError):
            EqualBankPartitioning.compute_assignment(9, 8)

    def test_initialize_applies(self):
        world = make_world()
        EqualBankPartitioning().initialize(world)
        assert world.allocator.thread_colors(0) == frozenset({0, 1})
        assert world.allocator.thread_colors(3) == frozenset({6, 7})


class TestFixed:
    def test_applies_given_allocation(self):
        world = make_world(num_threads=2)
        FixedAllocationPolicy({0: [0], 1: [1, 2]}).initialize(world)
        assert world.allocator.thread_colors(0) == frozenset({0})
        assert world.allocator.thread_colors(1) == frozenset({1, 2})

    def test_missing_thread_rejected(self):
        world = make_world(num_threads=2)
        with pytest.raises(ConfigError):
            FixedAllocationPolicy({0: [0]}).initialize(world)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            FixedAllocationPolicy({})


class TestMCP:
    def test_initialize_is_shared(self):
        world = make_world()
        MemoryChannelPartitioning().initialize(world)
        assert world.allocator.thread_channels(0) == frozenset({0, 1})

    def test_intensive_threads_get_single_channels(self):
        world = make_world()
        policy = MemoryChannelPartitioning()
        snapshot = snap(
            prof(0, mpki=30, rbh=0.9),  # intensive, high RBH
            prof(1, mpki=25, rbh=0.2),  # intensive, low RBH
            prof(2, mpki=0.1),
            prof(3, mpki=0.2),
        )
        assignment = policy.compute_assignment(snapshot, world)
        assert len(assignment[0]) == 1
        assert len(assignment[1]) == 1
        # Different RBH groups end up on different channels.
        assert assignment[0] != assignment[1]

    def test_light_threads_keep_all_channels(self):
        world = make_world()
        policy = MemoryChannelPartitioning()
        snapshot = snap(
            prof(0, mpki=30, rbh=0.9),
            prof(1, mpki=25, rbh=0.2),
            prof(2, mpki=0.1),
            prof(3, mpki=0.2),
        )
        assignment = policy.compute_assignment(snapshot, world)
        assert assignment[2] == [0, 1]
        assert assignment[3] == [0, 1]

    def test_same_group_load_balanced(self):
        world = make_world(channels=4)
        policy = MemoryChannelPartitioning()
        snapshot = snap(
            *[prof(t, mpki=30, rbh=0.2, bandwidth=0.3) for t in range(4)]
        )
        assignment = policy.compute_assignment(snapshot, world)
        used = [c for t in range(4) for c in assignment[t]]
        # Four equal threads over four channels: spread out.
        assert len(set(used)) == 4

    def test_single_channel_degenerates_to_shared(self):
        world = make_world(channels=1)
        policy = MemoryChannelPartitioning()
        snapshot = snap(prof(0, mpki=30), prof(1, mpki=30), prof(2), prof(3))
        assignment = policy.compute_assignment(snapshot, world)
        assert all(channels == [0] for channels in assignment.values())

    def test_on_epoch_applies_channels(self):
        world = make_world()
        policy = MemoryChannelPartitioning()
        policy.initialize(world)
        snapshot = snap(
            prof(0, mpki=30, rbh=0.9),
            prof(1, mpki=25, rbh=0.2),
            prof(2, mpki=0.1),
            prof(3, mpki=0.2),
        )
        policy.on_epoch(snapshot, world)
        assert len(world.allocator.thread_channels(0)) == 1
        assert policy.last_assignment

    def test_config_validation(self):
        for threshold in (-1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                MCPConfig(low_mpki_threshold=threshold)
        with pytest.raises(ConfigError):
            MCPConfig(high_rbh_threshold=0)
        with pytest.raises(ConfigError):
            MCPConfig(epoch_cycles=0)
