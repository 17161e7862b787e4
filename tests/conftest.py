"""Shared fixtures: small, fast configurations for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMOrganization,
    OSConfig,
    SystemConfig,
)
from repro.dram.timing import DDR3_1066, scaled_timings
from repro.mapping import AddressMap
from repro.sim.runner import Runner


@pytest.fixture
def timings():
    """Unscaled DDR3-1066 timings (small numbers, easy to reason about)."""
    return DDR3_1066


@pytest.fixture
def scaled():
    """DDR3-1066 scaled to a 4:1 CPU clock."""
    return scaled_timings(DDR3_1066, 4)


@pytest.fixture
def small_org():
    """One channel, one rank, four banks — the smallest useful device."""
    return DRAMOrganization(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=4,
        rows_per_bank=256,
        row_size_bytes=8192,
    )


@pytest.fixture
def small_config(small_org):
    """Two cores on the small device, tiny cache, fast epochs."""
    return SystemConfig(
        num_cores=2,
        clock_ratio=2,
        dram_preset="DDR3-1066",
        organization=small_org,
        core=CoreConfig(width=4, rob_size=64, mshrs=8),
        cache=CacheConfig(size_bytes=16 * 1024, associativity=4),
        controller=ControllerConfig(
            read_queue_depth=32,
            write_queue_depth=32,
            write_high_watermark=24,
            write_low_watermark=8,
        ),
        osmm=OSConfig(migration_budget_pages=4, migration_lines_per_page=2),
    )


@pytest.fixture
def address_map(small_config):
    return AddressMap(small_config.organization, small_config.osmm.page_size)


@pytest.fixture
def fast_runner(small_config):
    """A Runner with a short horizon for integration tests."""
    return Runner(config=small_config, horizon=30_000, target_insts=200_000)


@pytest.fixture
def alone_runs(monkeypatch):
    """The apps whose alone run was simulated in this process, in order."""
    simulated = []
    original = Runner._simulate_alone

    def counting(runner, app):
        simulated.append(app)
        return original(runner, app)

    monkeypatch.setattr(Runner, "_simulate_alone", counting)
    return simulated
