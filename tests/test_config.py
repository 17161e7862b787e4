"""Configuration validation and derived-property tests."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMOrganization,
    OSConfig,
    SystemConfig,
)
from repro.config import PrefetcherConfig
from repro.errors import ConfigError

CONFIG_CLASSES = [
    DRAMOrganization,
    CoreConfig,
    CacheConfig,
    ControllerConfig,
    OSConfig,
    PrefetcherConfig,
    SystemConfig,
]
INT_FIELD_CASES = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in CONFIG_CLASSES
    for name in cls.INT_FIELDS
]


class TestDRAMOrganization:
    def test_defaults_valid(self):
        org = DRAMOrganization()
        assert org.banks_per_channel == org.ranks_per_channel * org.banks_per_rank
        assert org.total_banks == org.channels * org.banks_per_channel

    def test_capacity(self):
        org = DRAMOrganization(
            channels=1,
            ranks_per_channel=1,
            banks_per_rank=4,
            rows_per_bank=256,
            row_size_bytes=8192,
        )
        assert org.capacity_bytes == 4 * 256 * 8192

    @pytest.mark.parametrize(
        "field,value",
        [
            ("channels", 3),
            ("ranks_per_channel", 0),
            ("banks_per_rank", 12),
            ("rows_per_bank", 100),
            ("row_size_bytes", 5000),
            ("line_size", 48),
        ],
    )
    def test_non_powers_rejected(self, field, value):
        with pytest.raises(ConfigError):
            DRAMOrganization(**{field: value})

    def test_row_smaller_than_line_rejected(self):
        with pytest.raises(ConfigError):
            DRAMOrganization(row_size_bytes=32, line_size=64)


class TestCoreConfig:
    def test_defaults_valid(self):
        CoreConfig()

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(width=0)

    def test_rob_smaller_than_width_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(width=8, rob_size=4)

    def test_zero_mshrs_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(mshrs=0)


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=16 * 1024, associativity=4, line_size=64)
        assert config.num_sets == 64

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=24 * 1024, associativity=4, line_size=64)

    def test_odd_line_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_size=96)

    def test_zero_hit_latency_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(hit_latency=0)


class TestControllerConfig:
    def test_defaults_valid(self):
        ControllerConfig()

    def test_watermark_order_enforced(self):
        with pytest.raises(ConfigError):
            ControllerConfig(write_high_watermark=8, write_low_watermark=16)

    def test_watermark_above_depth_rejected(self):
        with pytest.raises(ConfigError):
            ControllerConfig(write_queue_depth=16, write_high_watermark=32)

    def test_zero_queue_rejected(self):
        with pytest.raises(ConfigError):
            ControllerConfig(read_queue_depth=0)


class TestSchedulerParams:
    """The scheduler and its parameters are checked when the config is
    built, not first when a System builds the scheduler."""

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler 'nosuch'"):
            ControllerConfig(scheduler="nosuch")

    def test_tcm_zero_quantum_rejected(self):
        with pytest.raises(ConfigError, match="quantum_cycles"):
            ControllerConfig(
                scheduler="tcm", scheduler_params={"quantum_cycles": 0}
            )

    def test_bliss_negative_threshold_rejected(self):
        with pytest.raises(ConfigError, match="blacklist_threshold"):
            ControllerConfig(
                scheduler="bliss", scheduler_params={"blacklist_threshold": -3}
            )

    def test_unknown_keyword_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            ControllerConfig(scheduler="tcm", scheduler_params={"bogus": 1})

    def test_float_for_an_int_parameter_rejected(self):
        with pytest.raises(ConfigError, match="shuffle_interval must be int"):
            ControllerConfig(
                scheduler="tcm", scheduler_params={"shuffle_interval": 2.5}
            )

    def test_with_scheduler_checks_too(self):
        with pytest.raises(ConfigError, match="marking_cap"):
            SystemConfig().with_scheduler("parbs", marking_cap=0)

    def test_valid_params_accepted(self):
        config = ControllerConfig(
            scheduler="atlas", scheduler_params={"alpha": 0, "quantum_cycles": 9}
        )
        assert config.scheduler_params == {"alpha": 0, "quantum_cycles": 9}


class TestOSConfig:
    def test_defaults_valid(self):
        OSConfig()

    def test_bad_page_size_rejected(self):
        with pytest.raises(ConfigError):
            OSConfig(page_size=3000)

    def test_bad_migration_mode_rejected(self):
        with pytest.raises(ConfigError):
            OSConfig(migration_mode="teleport")

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            OSConfig(migration_budget_pages=-1)


class TestSystemConfig:
    def test_defaults_valid(self):
        config = SystemConfig()
        assert config.bank_colors == config.organization.banks_per_channel

    def test_timings_scaled_by_clock_ratio(self):
        config = SystemConfig(clock_ratio=6)
        from repro.dram.timing import preset

        base = preset(config.dram_preset)
        assert config.timings.tRCD == base.tRCD * 6
        assert config.timings.CL == base.CL * 6

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(dram_preset="DDR9-9000")

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(cache=CacheConfig(line_size=128))

    def test_row_smaller_than_page_rejected(self):
        org = DRAMOrganization(row_size_bytes=2048, rows_per_bank=1024)
        with pytest.raises(ConfigError):
            SystemConfig(organization=org)

    def test_page_smaller_than_line_rejected(self):
        # Passes OSConfig alone; the address map cannot place it.
        with pytest.raises(ConfigError):
            SystemConfig(osmm=OSConfig(page_size=32))

    def test_more_cores_than_colors_rejected(self):
        org = DRAMOrganization(ranks_per_channel=1, banks_per_rank=8)
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=16, organization=org)

    def test_with_scheduler_returns_modified_copy(self):
        config = SystemConfig()
        modified = config.with_scheduler("tcm", cluster_fraction=0.2)
        assert modified.controller.scheduler == "tcm"
        assert modified.controller.scheduler_params == {"cluster_fraction": 0.2}
        assert config.controller.scheduler == "frfcfs"  # original untouched

    def test_describe_mentions_key_facts(self):
        text = SystemConfig().describe()
        assert "DDR3-1066" in text
        assert "Bank colors" in text
        assert "512 KB" in text

    def test_page_offset_bits(self):
        assert SystemConfig().page_offset_bits == 12


class TestIntFieldDomains:
    """Every int field rejects a float, a bool and a below-minimum value
    with ConfigError at construction, never another exception and never a
    config that simulates in float cycles."""

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_every_int_field_is_declared_and_defaults_construct(self, cls):
        declared = {f.name for f in dataclasses.fields(cls) if f.type == "int"}
        assert set(cls.INT_FIELDS) == declared
        cls()

    @pytest.mark.parametrize("cls,name", INT_FIELD_CASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_out_of_domain_values_are_config_errors(self, cls, name, data):
        minimum = cls.INT_FIELDS[name]
        value = data.draw(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.booleans()
            | st.integers(max_value=minimum - 1),
            label=name,
        )
        with pytest.raises(ConfigError):
            cls(**{name: value})

    @pytest.mark.parametrize("cls,name", INT_FIELD_CASES)
    def test_integral_float_of_the_default_is_rejected(self, cls, name):
        with pytest.raises(ConfigError):
            cls(**{name: float(getattr(cls(), name))})

