"""Set-associative write-back cache with LRU replacement.

The cache operates on physical cache-line addresses (translation happens
before the cache in this system, which keeps page migration honest: moving a
page changes the lines the cache holds for it). It is used as each core's
private last-level cache; hits cost ``hit_latency`` cycles, misses go to the
memory system, and dirty evictions surface as writeback lines for the caller
to turn into DRAM write requests.

Line state is four flat structures allocated once, indexed by slot
``set * associativity + way``: a tag array (-1 marks an empty slot), a
last-touch stamp per slot drawn from one counter per cache, a dirty
bytearray, and a live-line count per set. A full set's LRU victim is its
slot with the smallest stamp.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from ..config import CacheConfig
from ..utils import ilog2


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    writeback_line: Optional[int] = None  # dirty victim, if the fill evicted one


# Immutable, so the two dominant outcomes (hit, clean miss) are shared
# singletons instead of a fresh allocation per access.
_HIT = AccessResult(hit=True)
_CLEAN_MISS = AccessResult(hit=False)


class Cache:
    """One set-associative cache instance."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_bits = ilog2(self.num_sets)
        self._set_mask = self.num_sets - 1
        self._writeback = config.writeback
        slots = self.num_sets * self.associativity
        self._tags = array("q", [-1]) * slots
        self._stamps = array("q", [0]) * slots
        self._dirty = bytearray(slots)
        self._live = array("q", [0]) * self.num_sets
        self._clock = 0
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_writebacks = 0

    # ------------------------------------------------------------------
    def _slot(self, set_index: int, tag: int) -> int:
        """Slot holding ``tag`` in ``set_index``, or -1."""
        base = set_index * self.associativity
        ways = self._tags[base : base + self.associativity]
        return base + ways.index(tag) if tag in ways else -1

    def access(self, line_addr: int, is_write: bool) -> AccessResult:
        """Look up ``line_addr``; allocate on miss (write-allocate).

        Returns whether it hit and, on a miss that evicted a dirty line,
        the physical line address that must be written back.
        """
        set_index = line_addr & self._set_mask
        tag = line_addr >> self._set_bits
        slot = self._slot(set_index, tag)
        if slot >= 0:
            self.stat_hits += 1
            self._stamps[slot] = self._clock
            self._clock += 1
            if is_write and self._writeback:
                self._dirty[slot] = 1
            return _HIT
        self.stat_misses += 1
        writeback = self._fill(set_index, tag, is_write and self._writeback)
        if writeback is None:
            return _CLEAN_MISS
        return AccessResult(hit=False, writeback_line=writeback)

    def _fill(self, set_index: int, tag: int, dirty: bool) -> Optional[int]:
        ways = self.associativity
        base = set_index * ways
        live = self._live[set_index]
        writeback = None
        if live < ways:
            # The fill goes to way ``live``. After an invalidation left a
            # hole below it, that way may hold a line, which is overwritten
            # without a writeback (a known defect, kept so that simulated
            # results do not move; see DESIGN.md "Private caches").
            slot = base + live
            if self._tags[slot] < 0:
                self._live[set_index] = live + 1
        else:
            stamps = self._stamps[base : base + ways]
            slot = base + stamps.index(min(stamps))
            if self._dirty[slot]:
                writeback = (self._tags[slot] << self._set_bits) | set_index
                self.stat_writebacks += 1
        self._tags[slot] = tag
        self._dirty[slot] = dirty
        self._stamps[slot] = self._clock
        self._clock += 1
        return writeback

    def insert(self, line_addr: int) -> Optional[int]:
        """Fill a line without demand-access accounting (prefetch fills).

        Returns the dirty victim's line address when the fill evicted one,
        None otherwise (including when the line was already resident).
        """
        set_index = line_addr & self._set_mask
        tag = line_addr >> self._set_bits
        if self._slot(set_index, tag) >= 0:
            return None
        return self._fill(set_index, tag, dirty=False)

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        """True if ``line_addr`` is currently resident."""
        set_index = line_addr & self._set_mask
        return self._slot(set_index, line_addr >> self._set_bits) >= 0

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (used when a page migrates); returns True if present.

        The dirty bit is discarded deliberately: the migration engine copies
        the page from DRAM, and modelling the flush as part of the copy
        traffic keeps the accounting in one place.
        """
        set_index = line_addr & self._set_mask
        slot = self._slot(set_index, line_addr >> self._set_bits)
        if slot < 0:
            return False
        self._tags[slot] = -1
        self._live[set_index] -= 1
        return True

    @property
    def miss_rate(self) -> float:
        """Miss fraction over all accesses so far (0 when untouched)."""
        total = self.stat_hits + self.stat_misses
        return self.stat_misses / total if total else 0.0
