"""Experiment runner tests."""

from dataclasses import replace

import pytest

from repro.campaign.store import run_key, scope_of
from repro.core.dbp import DBPConfig, DynamicBankPartitioning
from repro.errors import ExperimentError
from repro.sim.runner import Runner
from repro.workloads import Mix


@pytest.fixture
def mix():
    return Mix("TEST", ("lbm", "gcc"), "H1L1")


class TestTraceCache:
    def test_traces_cached(self, fast_runner):
        a = fast_runner.trace_for("lbm")
        b = fast_runner.trace_for("lbm")
        assert a is b

    def test_traces_seeded(self, fast_runner):
        assert fast_runner.trace_for("lbm").name == "lbm"

    def test_trace_cache_keyed_by_generator_inputs(self, fast_runner):
        """Mutating seed or target_insts must never serve a stale trace."""
        a = fast_runner.trace_for("lbm")
        fast_runner.seed = 7
        b = fast_runner.trace_for("lbm")
        assert a is not b
        fast_runner.seed = 1
        assert fast_runner.trace_for("lbm") is a
        fast_runner.target_insts = 100_000
        c = fast_runner.trace_for("lbm")
        assert c is not a

    def test_alone_cache_keyed_by_everything_the_run_depends_on(
        self, small_config
    ):
        """Mutating horizon (or config/validate/ahead_limit) must never
        serve a stale baseline: the cache key is the alone content key."""
        runner = Runner(small_config, horizon=40_000, target_insts=200_000)
        short = runner.alone_ipc("lbm")
        runner.horizon = 80_000
        fresh = Runner(small_config, horizon=80_000, target_insts=200_000)
        assert runner.alone_ipc("lbm") == fresh.alone_ipc("lbm")
        assert runner.alone_ipc("lbm") != short
        runner.horizon = 40_000
        assert runner.alone_ipc("lbm") == short
        runner.config = replace(
            small_config, core=replace(small_config.core, rob_size=16)
        )
        assert runner.alone_ipc("lbm") != short


class TestAloneRuns:
    def test_alone_ipc_positive_and_cached(self, fast_runner, alone_runs):
        first = fast_runner.alone_ipc("lbm")
        assert first > 0
        assert fast_runner.alone_ipc("lbm") == first
        assert alone_runs == ["lbm"]  # the second call simulated nothing

    def test_light_app_faster_alone(self, fast_runner):
        assert fast_runner.alone_ipc("gcc") > fast_runner.alone_ipc("lbm")

    @pytest.mark.parametrize("app", ["lbm", "gcc", "mcf"])
    def test_one_core_shared_run_equals_the_alone_baseline(
        self, fast_runner, app
    ):
        """Metamorphic: alone is the 1-core case of shared FR-FCFS."""
        result = fast_runner.run_apps([app], "shared-frfcfs")
        assert result.shared_ipcs[0] == fast_runner.alone_ipc(app)
        assert result.metrics.weighted_speedup == 1.0
        assert result.metrics.max_slowdown == 1.0


class TestRunApps:
    def test_metrics_populated(self, fast_runner, mix):
        result = fast_runner.run_mix(mix, "shared-frfcfs")
        metrics = result.metrics
        assert metrics.mix == "TEST"
        assert metrics.approach == "shared-frfcfs"
        assert metrics.weighted_speedup > 0
        assert metrics.max_slowdown >= 1.0 or metrics.max_slowdown > 0
        assert set(metrics.slowdowns) == {0, 1}
        assert metrics.apps == ("lbm", "gcc")
        assert set(result.alone_ipcs) == {0, 1}
        assert set(result.shared_ipcs) == {0, 1}

    def test_different_approaches_not_conflated(self, fast_runner, mix):
        a = fast_runner.run_mix(mix, "shared-frfcfs")
        b = fast_runner.run_mix(mix, "ebp")
        assert a is not b
        assert b.metrics.approach == "ebp"

    def test_unknown_approach_rejected(self, fast_runner, mix):
        with pytest.raises(Exception):
            fast_runner.run_mix(mix, "nonsense")

    def test_default_mix_name_joins_apps(self, fast_runner):
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        assert result.metrics.mix == "lbm+gcc"


class TestRunCacheKey:
    def test_key_binds_resolved_scheduler(self, fast_runner, monkeypatch):
        """Two registrations sharing a label must not share store entries."""
        from repro.core.integration import APPROACHES, Approach

        monkeypatch.setitem(
            APPROACHES, "tmp-x", Approach("tmp-x", "shared", "fcfs")
        )
        key_fcfs = run_key(
            fast_runner.config, ("lbm", "gcc"), "tmp-x",
            **scope_of(fast_runner),
        )
        monkeypatch.setitem(
            APPROACHES, "tmp-x", Approach("tmp-x", "shared", "frfcfs")
        )
        key_frfcfs = run_key(
            fast_runner.config, ("lbm", "gcc"), "tmp-x",
            **scope_of(fast_runner),
        )
        assert key_fcfs != key_frfcfs


class TestScopeMutation:
    def test_run_apps_follows_horizon_seed_and_config(self, small_config):
        """A Runner whose scope is mutated between runs gives exactly what
        a fresh Runner built at the new scope gives: nothing it remembers
        is keyed by less than the scope."""
        runner = Runner(small_config, horizon=20_000, target_insts=200_000)
        runner.run_apps(["lbm", "gcc"], "dbp")
        small_rob = replace(
            small_config, core=replace(small_config.core, rob_size=16)
        )
        for field, value in (
            ("horizon", 40_000),
            ("seed", 2),
            ("config", small_rob),
        ):
            setattr(runner, field, value)
            fresh = Runner(
                runner.config,
                horizon=runner.horizon,
                seed=runner.seed,
                target_insts=runner.target_insts,
            )
            got = runner.run_apps(["lbm", "gcc"], "dbp")
            want = fresh.run_apps(["lbm", "gcc"], "dbp")
            assert got.shared_ipcs == want.shared_ipcs, field
            assert got.alone_ipcs == want.alone_ipcs, field
            assert got.metrics.summary == want.metrics.summary, field


class TestRunCustom:
    def test_custom_policy_run(self, fast_runner):
        policy = DynamicBankPartitioning(DBPConfig(epoch_cycles=5_000))
        result = fast_runner.run_custom(
            ["lbm", "gcc"], policy, label="dbp-test"
        )
        assert result.metrics.approach == "dbp-test"
        assert result.metrics.weighted_speedup > 0

    def test_custom_scheduler_params(self, fast_runner):
        from repro.baselines import SharedPolicy

        result = fast_runner.run_custom(
            ["lbm", "gcc"],
            SharedPolicy(),
            scheduler="tcm",
            label="tcm-wide",
            cluster_fraction=0.3,
        )
        assert result.metrics.weighted_speedup > 0


class TestValidation:
    def test_bad_horizon_rejected(self, small_config):
        from repro.sim.runner import Runner

        with pytest.raises(ExperimentError):
            Runner(config=small_config, horizon=0)
