"""Searcher properties: determinism, bounds, and construction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.tuner.searchers import (
    STRATEGIES,
    TrialPoint,
    make_searcher,
)
from repro.tuner.space import ParameterSpace, Tunable

SPACE = ParameterSpace(
    approach="toy",
    tunables=(
        Tunable(name="n", kind="int", default=100, low=10, high=1000,
                log=True),
        Tunable(name="f", kind="float", default=0.5, low=0.1, high=0.9),
        Tunable(name="c", kind="choice", default="a", choices=("a", "b", "x"),
                target="scheduler"),
    ),
)


def _score(point: TrialPoint) -> float:
    """A deterministic pseudo-objective (no simulator involved)."""
    params = point.params_dict()
    return float(params["n"]) * params["f"] % 7.0


def _drive(searcher):
    """Run a searcher to exhaustion against the pseudo-objective."""
    sequence = []
    while True:
        point = searcher.propose()
        if point is None:
            break
        searcher.observe(point, _score(point))
        sequence.append(point)
    return sequence


class TestDeterminism:
    @given(
        strategy=st.sampled_from(sorted(STRATEGIES)),
        budget=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_seed_replays_identical_sequence(self, strategy, budget,
                                                  seed):
        first = _drive(make_searcher(strategy, SPACE, budget, seed))
        second = _drive(make_searcher(strategy, SPACE, budget, seed))
        assert first == second

    def test_different_seeds_diverge(self):
        a = _drive(make_searcher("random", SPACE, 8, seed=1))
        b = _drive(make_searcher("random", SPACE, 8, seed=2))
        assert a != b


class TestBounds:
    @given(
        strategy=st.sampled_from(sorted(STRATEGIES)),
        budget=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_proposal_is_in_bounds(self, strategy, budget, seed):
        for point in _drive(make_searcher(strategy, SPACE, budget, seed)):
            params = point.params_dict()
            assert SPACE.coerce_point(params) == params
            assert 10 <= params["n"] <= 1000
            assert isinstance(params["n"], int)
            assert 0.1 <= params["f"] <= 0.9
            assert params["c"] in ("a", "b", "x")

    @given(
        strategy=st.sampled_from(sorted(STRATEGIES)),
        budget=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_budget_is_respected(self, strategy, budget, seed):
        assert len(_drive(make_searcher(strategy, SPACE, budget, seed))) \
            <= budget


class TestConstruction:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown search strategy"):
            make_searcher("annealing", SPACE, 4, 1)

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            make_searcher("random", SPACE, 0, 1)

    def test_empty_space_rejected(self):
        empty = ParameterSpace(approach="none")
        with pytest.raises(ConfigError, match="no tunables"):
            make_searcher("random", empty, 4, 1)
