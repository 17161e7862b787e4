"""Unit and property tests for repro.utils."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.utils import (
    ceil_div,
    clamp,
    geometric_mean,
    ilog2,
    is_power_of_two,
    largest_remainder_shares,
    make_rng,
)


class TestPowersOfTwo:
    def test_powers_are_detected(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers_are_rejected(self):
        for value in (0, -1, -2, 3, 5, 6, 7, 9, 12, 100):
            assert not is_power_of_two(value)

    def test_ilog2_exact(self):
        for exponent in range(20):
            assert ilog2(1 << exponent) == exponent

    def test_ilog2_rejects_non_powers(self):
        with pytest.raises(ConfigError):
            ilog2(12)

    def test_ilog2_rejects_zero(self):
        with pytest.raises(ConfigError):
            ilog2(0)


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 4) == 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ConfigError):
            ceil_div(1, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_math_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b) or ceil_div(a, b) == -(-a // b)


class TestClamp:
    def test_inside_range(self):
        assert clamp(5, 0, 10) == 5

    def test_below(self):
        assert clamp(-1, 0, 10) == 0

    def test_above(self):
        assert clamp(11, 0, 10) == 10

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            clamp(1, 5, 4)


class TestMeans:
    def test_geometric_mean_basic(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)

    @pytest.mark.parametrize("fn", [geometric_mean])
    def test_empty_rejected(self, fn):
        with pytest.raises(ValueError):
            fn([])

    @pytest.mark.parametrize("fn", [geometric_mean])
    def test_nonpositive_rejected(self, fn):
        with pytest.raises(ValueError):
            fn([1.0, 0.0])


class TestLargestRemainder:
    def test_exact_split(self):
        assert largest_remainder_shares([1, 1], 4) == [2, 2]

    def test_remainder_goes_to_largest_fraction(self):
        assert largest_remainder_shares([2, 1], 4) == [3, 1]

    def test_zero_weight_gets_zero(self):
        assert largest_remainder_shares([1, 0, 1], 4) == [2, 0, 2]

    def test_all_zero_weights(self):
        assert largest_remainder_shares([0, 0], 5) == [0, 0]

    def test_zero_total(self):
        assert largest_remainder_shares([3, 1], 0) == [0, 0]

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_shares([1], -1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_shares([-1, 2], 3)

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=16),
        st.integers(0, 64),
    )
    def test_shares_always_sum_to_total(self, weights, total):
        shares = largest_remainder_shares(weights, total)
        if sum(weights) == 0:
            assert shares == [0] * len(weights)
        else:
            assert sum(shares) == total
        assert all(s >= 0 for s in shares)

    @given(st.integers(1, 100), st.integers(1, 16))
    def test_equal_weights_split_evenly(self, total, n):
        shares = largest_remainder_shares([1.0] * n, total)
        assert max(shares) - min(shares) <= 1


class TestRng:
    def test_same_stream_reproducible(self):
        a = make_rng(1, "x").random()
        b = make_rng(1, "x").random()
        assert a == b

    def test_different_streams_differ(self):
        a = make_rng(1, "x").random()
        b = make_rng(1, "y").random()
        assert a != b

    def test_different_seeds_differ(self):
        a = make_rng(1, "x").random()
        b = make_rng(2, "x").random()
        assert a != b
