"""Bank-demand estimator tests."""

import pytest

from repro.core.demand import BankDemandEstimator, DemandConfig
from repro.errors import ConfigError
from repro.memctrl.schedulers.base import ProfileSnapshot, ThreadProfile


def snap(*profiles):
    return ProfileSnapshot(
        cycle=0, threads={p.thread_id: p for p in profiles}
    )


def prof(thread, mpki=20.0, rbh=0.5, blp=2.0):
    return ThreadProfile(thread, mpki, rbh, blp, bandwidth=0.2, requests=100)


class TestClassification:
    def test_below_threshold_is_light(self):
        est = BankDemandEstimator(DemandConfig(low_mpki_threshold=1.0))
        assert not est.classify_intensive(0.5)
        assert est.classify_intensive(1.0)

    def test_light_thread_demand_zero(self):
        est = BankDemandEstimator(DemandConfig())
        demands = est.estimate(snap(prof(0, mpki=0.2)), 1)
        assert not demands[0].intensive
        assert demands[0].banks == 0

    def test_missing_thread_treated_as_light(self):
        est = BankDemandEstimator(DemandConfig())
        demands = est.estimate(snap(), 2)
        assert not demands[0].intensive
        assert not demands[1].intensive


class TestFullMode:
    def test_demand_scales_with_blp(self):
        est = BankDemandEstimator(DemandConfig(blp_scale=1.5))
        low = est.estimate(snap(prof(0, blp=1.0)), 1)[0].banks
        high = est.estimate(snap(prof(0, blp=6.0)), 1)[0].banks
        assert high > low
        assert high == 9  # ceil(6 * 1.5)

    def test_streaming_deduction(self):
        est = BankDemandEstimator(
            DemandConfig(blp_scale=2.0, high_rbh_threshold=0.85)
        )
        normal = est.estimate(snap(prof(0, blp=4.0, rbh=0.5)), 1)[0].banks
        stream = est.estimate(snap(prof(0, blp=4.0, rbh=0.95)), 1)[0].banks
        assert stream == normal // 2

    def test_cap_respected(self):
        est = BankDemandEstimator(DemandConfig(max_banks_per_thread=4))
        demand = est.estimate(snap(prof(0, blp=50.0)), 1)[0].banks
        assert demand == 4

    def test_minimum_one_bank(self):
        est = BankDemandEstimator(DemandConfig())
        demand = est.estimate(snap(prof(0, blp=0.01)), 1)[0].banks
        assert demand >= 1


class TestVariantModes:
    def test_blp_mode_ignores_rbh(self):
        est = BankDemandEstimator(
            DemandConfig(high_rbh_threshold=1.0, blp_scale=2.0)
        )
        a = est.estimate(snap(prof(0, blp=4.0, rbh=0.99)), 1)[0].banks
        b = est.estimate(snap(prof(0, blp=4.0, rbh=0.10)), 1)[0].banks
        assert a == b

    def test_mpki_mode_scales_with_intensity(self):
        est = BankDemandEstimator(DemandConfig(mode="mpki"))
        light = est.estimate(snap(prof(0, mpki=5.0)), 1)[0].banks
        heavy = est.estimate(snap(prof(0, mpki=40.0)), 1)[0].banks
        assert heavy > light


class TestValidation:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            DemandConfig(low_mpki_threshold=-1)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            DemandConfig(blp_scale=0)

    def test_bad_rbh_threshold_rejected(self):
        with pytest.raises(ConfigError):
            DemandConfig(high_rbh_threshold=1.5)

    def test_zero_cap_rejected(self):
        with pytest.raises(ConfigError):
            DemandConfig(max_banks_per_thread=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            DemandConfig(mode="oracle")

    def test_blp_mode_is_gone(self):
        # Use high_rbh_threshold=1.0 for BLP-only demand.
        with pytest.raises(ConfigError):
            DemandConfig(mode="blp")
