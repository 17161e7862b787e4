"""Cache model tests: hits, LRU, writebacks, invalidation, and a
differential check against the dict-based cache it replaced."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import AccessResult, Cache
from repro.config import CacheConfig
from tests.reference_cache import ReferenceCache


def small_cache(sets=4, assoc=2, writeback=True):
    config = CacheConfig(
        size_bytes=sets * assoc * 64,
        associativity=assoc,
        line_size=64,
        writeback=writeback,
    )
    return Cache(config)


class TestBasics:
    def test_first_access_misses(self):
        cache = small_cache()
        assert not cache.access(0, False).hit

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0, False)
        assert cache.access(0, True).hit

    def test_different_sets_independent(self):
        cache = small_cache(sets=4)
        cache.access(0, False)
        assert not cache.access(1, False).hit  # next set

    def test_contains(self):
        cache = small_cache()
        cache.access(5, False)
        assert cache.contains(5)
        assert not cache.contains(9)

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0, False)
        cache.access(0, False)
        assert cache.miss_rate == pytest.approx(0.5)
        assert small_cache().miss_rate == 0.0


class TestLRU:
    def test_lru_victim_is_oldest(self):
        cache = small_cache(sets=1, assoc=2)
        cache.access(0, False)  # tags 0, 1 fill set 0
        cache.access(1, False)
        cache.access(0, False)  # touch 0: now 1 is LRU
        cache.access(2, False)  # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(2)

    def test_touch_moves_to_back(self):
        cache = small_cache(sets=1, assoc=3)
        for tag in range(3):
            cache.access(tag, False)
        cache.access(0, True)  # a write hit touches too: 0 is now MRU
        cache.access(3, False)  # evicts 1
        cache.access(4, False)  # evicts 2
        assert cache.contains(0)
        assert not cache.contains(1) and not cache.contains(2)

    def test_fill_uses_free_way_before_evicting(self):
        cache = small_cache(sets=1, assoc=4)
        for tag in range(4):
            cache.access(tag, False)
        assert all(cache.contains(t) for t in range(4))

    def test_victim_is_least_recent_and_a_hit_refreshes_it(self):
        cache = small_cache(sets=1, assoc=4)
        for tag in range(4):
            cache.access(tag, False)
        cache.access(4, False)  # evicts 0, the oldest fill
        assert not cache.contains(0)
        cache.access(1, False)  # touch 1: now 2 is the oldest
        cache.access(5, False)
        assert not cache.contains(2)
        assert all(cache.contains(t) for t in (1, 3, 4, 5))

    def test_insert_counts_as_a_touch(self):
        cache = small_cache(sets=1, assoc=2)
        cache.access(0, False)
        cache.insert(1)
        cache.access(0, False)  # 1 (the prefetch fill) is now LRU
        cache.access(2, False)
        assert cache.contains(0) and not cache.contains(1)

    def test_sets_keep_their_own_order(self):
        cache = small_cache(sets=2, assoc=2)
        for line in (0, 2, 1, 3):  # set 0: 0 then 2; set 1: 1 then 3
            cache.access(line, False)
        cache.access(1, False)  # set 1 only: 3 is now its LRU line
        cache.access(4, False)  # set 0 evicts 0
        cache.access(5, False)  # set 1 evicts 3
        assert not cache.contains(0) and cache.contains(2)
        assert not cache.contains(3) and cache.contains(1)

    def test_filling_an_empty_set_never_evicts(self):
        cache = small_cache(sets=1, assoc=4)
        for tag in range(4):
            assert cache.access(tag, True) == AccessResult(hit=False)
        assert cache.stat_writebacks == 0


class TestWriteback:
    def test_dirty_eviction_reports_victim_line(self):
        cache = small_cache(sets=1, assoc=1)
        cache.access(0, True)  # dirty
        result = cache.access(1, False)  # evicts 0
        assert result.writeback_line == 0
        assert cache.stat_writebacks == 1

    def test_clean_eviction_silent(self):
        cache = small_cache(sets=1, assoc=1)
        cache.access(0, False)
        assert cache.access(1, False).writeback_line is None

    def test_write_hit_marks_dirty(self):
        cache = small_cache(sets=1, assoc=1)
        cache.access(0, False)  # clean fill
        cache.access(0, True)  # dirty it
        assert cache.access(1, False).writeback_line == 0

    def test_writethrough_mode_never_dirty(self):
        cache = small_cache(sets=1, assoc=1, writeback=False)
        cache.access(0, True)
        assert cache.access(1, False).writeback_line is None


class TestInvalidate:
    def test_invalidate_removes_line(self):
        cache = small_cache()
        cache.access(7, True)
        assert cache.invalidate(7)
        assert not cache.contains(7)
        assert not cache.access(7, False).hit

    def test_invalidate_absent_returns_false(self):
        cache = small_cache()
        assert not cache.invalidate(3)

    def test_fill_after_invalidation_overwrites_without_writeback(self):
        """Known defect, pinned so that it is fixed on purpose: a fill into
        a set holding fewer lines than ways goes to way ``live`` rather
        than into the hole, so once way 1 of a full set is invalidated the
        next miss overwrites way 3, dropping its dirty data with no
        writeback, while way 0, the LRU line, stays resident."""
        cache = small_cache(sets=1, assoc=4)
        for way in range(4):
            cache.access(way, True)  # one set: way == tag == line
        assert cache.invalidate(1)
        result = cache.access(4, False)
        assert result.writeback_line is None
        assert cache.stat_writebacks == 0
        assert cache.contains(0)
        assert not cache.contains(3)
        assert cache.contains(4)


class TestCapacityProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    def test_never_holds_more_than_capacity(self, addresses):
        cache = small_cache(sets=4, assoc=2)
        for addr in addresses:
            cache.access(addr, False)
        resident = sum(1 for a in range(256) if cache.contains(a))
        assert resident <= 8

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = small_cache()
        for addr in addresses:
            cache.access(addr, addr % 2 == 0)
        assert cache.stat_hits + cache.stat_misses == len(addresses)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=50))
    def test_working_set_within_one_set_capacity_always_hits_after_fill(
        self, addresses
    ):
        # 8 distinct lines mapping to 4 sets x 2 ways always fit.
        cache = small_cache(sets=4, assoc=2)
        for addr in range(8):
            cache.access(addr, False)
        for addr in addresses:
            assert cache.access(addr, False).hit


class TestOneSet:
    def test_fully_associative_fill_and_evict(self):
        cache = Cache(CacheConfig(size_bytes=16 * 64, associativity=16))
        for tag in range(16):
            cache.access(tag, True)
        assert cache.access(16, False).writeback_line == 0
        assert all(cache.contains(t) for t in range(1, 17))


# ---------------------------------------------------------------------------
# Differential oracle: the flat-array cache against the dict-based one.
# ---------------------------------------------------------------------------
_OPS = ("access", "insert", "invalidate", "contains")


def _drive(sets, assoc, writeback, ops):
    """Run ``ops`` on both caches and require identical answers, counters
    and residency after every step; returns how often the reference took
    the full-set victim path and the invalidation-hole path."""
    config = CacheConfig(
        size_bytes=sets * assoc * 64, associativity=assoc, writeback=writeback
    )
    cache, reference = Cache(config), ReferenceCache(config)
    lines = range(3 * sets * assoc)
    victims = holes = 0
    for step, (op, line, is_write) in enumerate(ops):
        if op in ("access", "insert") and not reference.contains(line):
            ways = reference._ways.get(line % sets, {})
            if len(ways) == assoc:
                victims += 1
            elif len(ways) in ways:
                holes += 1
        args = (line, is_write) if op == "access" else (line,)
        got = getattr(cache, op)(*args)
        want = getattr(reference, op)(*args)
        assert got == want, (step, op, line)
        for name in ("stat_hits", "stat_misses", "stat_writebacks"):
            assert getattr(cache, name) == getattr(reference, name), (step, name)
        assert [cache.contains(a) for a in lines] == [
            reference.contains(a) for a in lines
        ], step
    return victims, holes


@st.composite
def _scenario(draw):
    sets = draw(st.sampled_from([1, 2, 4]))
    assoc = draw(st.integers(1, 4))
    op = st.tuples(
        st.sampled_from(_OPS),
        st.integers(0, 3 * sets * assoc - 1),
        st.booleans(),
    )
    return sets, assoc, draw(st.booleans()), draw(st.lists(op, max_size=80))


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(_scenario())
    def test_same_answers_counters_and_residency(self, scenario):
        _drive(*scenario)

    def test_random_sequences_reach_victim_and_hole_paths(self):
        rng = random.Random(7)
        victims = holes = 0
        for sets in (1, 2, 4):
            for assoc in (1, 2, 3, 4):
                for writeback in (True, False):
                    ops = [
                        (
                            rng.choice(_OPS),
                            rng.randrange(3 * sets * assoc),
                            rng.random() < 0.5,
                        )
                        for _ in range(200)
                    ]
                    v, h = _drive(sets, assoc, writeback, ops)
                    victims += v
                    holes += h
        assert victims > 0 and holes > 0
