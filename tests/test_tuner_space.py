"""Tunable-parameter spaces and parameterized approach names."""

import math

import pytest

from repro.baselines.base import make_policy, policy_registry
from repro.config import OSConfig, SystemConfig
from repro.core.integration import APPROACHES, get_approach
from repro.errors import ConfigError
from repro.memctrl.schedulers import make_scheduler
from repro.tuner.space import (
    ParameterSpace,
    Tunable,
    approach_space,
    derive_approach,
    format_params,
    parameterized_name,
    parse_params,
    split_point,
)


class TestTunable:
    def test_numeric_needs_bounds(self):
        with pytest.raises(ConfigError, match="low and high"):
            Tunable(name="x", kind="int", default=1)

    def test_default_must_be_in_bounds(self):
        with pytest.raises(ConfigError, match="outside"):
            Tunable(name="x", kind="int", default=99, low=0, high=10)

    def test_choice_default_must_be_a_choice(self):
        with pytest.raises(ConfigError, match="not among"):
            Tunable(name="x", kind="choice", default="c", choices=("a", "b"))

    def test_log_scale_needs_positive_low(self):
        with pytest.raises(ConfigError, match="low > 0"):
            Tunable(name="x", kind="float", default=1.0, low=0.0, high=2.0,
                    log=True)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            Tunable(name="x", kind="bool", default=True)

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            Tunable(name="x", kind="int", default=1, low=0, high=2,
                    target="cpu")

    def test_coerce_parses_strings(self):
        t_int = Tunable(name="n", kind="int", default=5, low=1, high=10)
        t_float = Tunable(name="f", kind="float", default=0.5, low=0.0,
                          high=1.0)
        t_choice = Tunable(name="c", kind="choice", default="a",
                           choices=("a", "b"))
        assert t_int.coerce("7") == 7
        assert t_float.coerce("0.25") == 0.25
        assert t_choice.coerce("b") == "b"

    def test_coerce_rejects_out_of_bounds(self):
        t = Tunable(name="n", kind="int", default=5, low=1, high=10)
        with pytest.raises(ConfigError, match="outside"):
            t.coerce(11)

    def test_coerce_rejects_fractional_int(self):
        t = Tunable(name="n", kind="int", default=5, low=1, high=10)
        with pytest.raises(ConfigError, match="not a valid int"):
            t.coerce(2.5)

    def test_coerce_rejects_garbage(self):
        t = Tunable(name="f", kind="float", default=0.5, low=0.0, high=1.0)
        with pytest.raises(ConfigError, match="not a valid float"):
            t.coerce("banana")


class TestParameterSpace:
    def test_duplicate_names_rejected(self):
        t1 = Tunable(name="x", kind="int", default=1, low=0, high=2)
        t2 = Tunable(name="x", kind="float", default=0.5, low=0.0, high=1.0,
                     target="scheduler")
        with pytest.raises(ConfigError, match="declared by both"):
            ParameterSpace(approach="a", tunables=(t1, t2))

    def test_unknown_tunable_names_known_ones(self):
        space = approach_space("dbp")
        with pytest.raises(ConfigError, match="epoch_cycles"):
            space.get("warp_factor")

    def test_dbp_space_layers(self):
        space = approach_space("dbp")
        targets = {t.name: t.target for t in space.tunables}
        assert targets["epoch_cycles"] == "policy"
        assert targets["demand.low_mpki_threshold"] == "policy"
        assert targets["migration_budget_pages"] == "osmm"

    def test_dbp_tcm_adds_scheduler_tunables(self):
        dbp = set(approach_space("dbp").names())
        dbp_tcm = set(approach_space("dbp-tcm").names())
        assert {"quantum_cycles", "cluster_fraction"} <= dbp_tcm - dbp

    def test_shared_approach_has_no_osmm_tunables(self):
        space = approach_space("shared-frfcfs")
        assert not any(t.target == "osmm" for t in space.tunables)

    def test_every_registered_approach_assembles(self):
        for name in APPROACHES:
            space = approach_space(name)
            # Every declared default must survive its own validation.
            assert space.coerce_point(space.defaults()) == space.defaults()

    def test_split_point_routes_by_target(self):
        space = approach_space("dbp-tcm")
        layers = split_point(space, {
            "epoch_cycles": 20000,
            "quantum_cycles": 30000,
            "migration_budget_pages": 4,
        })
        assert layers["policy"] == {"epoch_cycles": 20000}
        assert layers["scheduler"] == {"quantum_cycles": 30000}
        assert layers["osmm"] == {"migration_budget_pages": 4}


class TestParamText:
    def test_format_is_sorted_and_canonical(self):
        assert format_params({"b": 2, "a": 0.5}) == "a=0.5,b=2"

    def test_empty_point_is_the_base_name(self):
        assert parameterized_name("dbp", {}) == "dbp"

    def test_parse_rejects_bad_item(self):
        with pytest.raises(ConfigError, match="name=value"):
            parse_params("epoch_cycles")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_params("a=1,a=2")

    def test_parse_rejects_empty(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_params("")


class TestDeriveApproach:
    def test_two_spellings_share_one_name(self):
        a = get_approach("dbp@epoch_cycles=20000,demand_smoothing=0.25")
        b = get_approach("dbp@demand_smoothing=0.25,epoch_cycles=20000")
        assert a.name == b.name
        assert a.policy_params == b.policy_params

    def test_derived_approach_carries_tuned_config(self):
        approach = get_approach(
            "dbp@epoch_cycles=20000,demand.low_mpki_threshold=0.8"
        )
        config = approach.policy_params["config"]
        assert config.epoch_cycles == 20000
        assert config.demand.low_mpki_threshold == 0.8
        assert "tuned:" in approach.description

    def test_scheduler_params_ride_flat(self):
        approach = get_approach("dbp-tcm@quantum_cycles=30000")
        assert approach.scheduler_params["quantum_cycles"] == 30000

    def test_tuned_point_gets_its_own_store_key(self):
        from repro.campaign.spec import RunSpec

        def spec(name):
            return RunSpec(
                apps=("mcf", "lbm"), approach=name, config=SystemConfig(),
                seed=1, horizon=10000,
            )

        default = spec("dbp").key()
        tuned = spec("dbp@epoch_cycles=20000").key()
        respelled = spec("dbp@epoch_cycles=20000").key()
        assert default != tuned
        assert tuned == respelled

    def test_osmm_params_rejected_in_names(self):
        with pytest.raises(ConfigError, match="migration engine"):
            get_approach("dbp@migration_budget_pages=4")

    def test_out_of_bounds_value_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            get_approach("dbp@epoch_cycles=999999999")

    def test_unknown_tunable_rejected(self):
        with pytest.raises(ConfigError, match="no tunable"):
            get_approach("dbp@warp_factor=9")

    def test_unknown_base_mentions_param_syntax(self):
        with pytest.raises(ConfigError, match="@key=value"):
            get_approach("warp-drive@x=1")

    def test_derived_approach_simulates(self):
        from repro.sim.runner import Runner
        from repro.workloads import resolve_mix

        runner = Runner(horizon=10_000, seed=1)
        metrics = runner.run_mix(
            resolve_mix("M4"), "dbp@epoch_cycles=10000"
        ).metrics
        assert metrics.weighted_speedup > 0


#: Every (approach, tunable) pair the registered approaches expose.
TUNABLE_CASES = [
    pytest.param(name, tunable, id=f"{name}:{tunable.name}")
    for name in APPROACHES
    for tunable in approach_space(name).tunables
]


def _construct_unchecked(base, tunable, value):
    """Build what ``tunable`` configures at ``value`` the way
    :func:`derive_approach` routes it, minus the tunable's own bounds check,
    so the constructor alone has to reject an out-of-domain value."""
    if tunable.target == "osmm":
        return OSConfig(**{tunable.name: value})
    if tunable.target == "scheduler":
        return make_scheduler(base.scheduler, 4, **{tunable.name: value})
    cls = policy_registry()[base.policy]
    return make_policy(base.policy, **cls.from_tunables({tunable.name: value}))


class TestTunableDomains:
    """Declared bounds and constructor checks agree: every value a search
    may propose constructs, and no non-finite float is ever accepted."""

    @pytest.mark.parametrize("name,tunable", TUNABLE_CASES)
    def test_declared_values_construct(self, name, tunable):
        if tunable.kind == "choice":
            values = list(tunable.choices)
        else:
            values = [tunable.low, tunable.high, tunable.default]
        for value in values:
            if tunable.target == "osmm":
                OSConfig(**{tunable.name: value})
                continue
            approach = derive_approach(
                APPROACHES[name], format_params({tunable.name: value})
            )
            approach.make_policy()
            make_scheduler(approach.scheduler, 4, **approach.scheduler_params)

    @pytest.mark.parametrize(
        "name,tunable",
        [case for case in TUNABLE_CASES if case.values[1].kind == "float"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_config_errors(self, name, tunable, value):
        with pytest.raises(ConfigError):
            _construct_unchecked(APPROACHES[name], tunable, value)
