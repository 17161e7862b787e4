"""Test oracle: the dict-based cache the flat-array ``repro.cache.Cache``
replaced.

Each set keeps a sparse ``way -> _Line`` dict, a ``tag -> way`` index and a
recency stack of way indices (most recent last). It is deliberately the
old, transparent layout: nothing about it is shared with the production
cache's stamp arrays, so ``tests/test_cache.py`` can drive both with the
same operation sequence and require identical answers, counters and
residency. That includes the fill after an invalidation: while a set holds
fewer than ``associativity`` lines a fill goes to way ``len(ways)`` and
overwrites whatever is there, with no writeback.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache import AccessResult
from repro.config import CacheConfig
from repro.utils import ilog2


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool) -> None:
        self.tag = tag
        self.dirty = dirty


class ReferenceCache:
    """Same interface as :class:`repro.cache.Cache`."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_bits = ilog2(self.num_sets)
        self._set_mask = self.num_sets - 1
        self._ways: Dict[int, Dict[int, _Line]] = {}
        self._tag_to_way: Dict[int, Dict[int, int]] = {}
        self._stacks: Dict[int, List[int]] = {}
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_writebacks = 0

    def _touch(self, set_index: int, way: int) -> None:
        stack = self._stacks.setdefault(set_index, [])
        if way in stack:
            stack.remove(way)
        stack.append(way)

    def _locate(self, set_index: int, tag: int) -> Optional[int]:
        return self._tag_to_way.get(set_index, {}).get(tag)

    def access(self, line_addr: int, is_write: bool) -> AccessResult:
        set_index = line_addr & self._set_mask
        tag = line_addr >> self._set_bits
        way = self._locate(set_index, tag)
        if way is not None:
            self.stat_hits += 1
            self._touch(set_index, way)
            if is_write and self.config.writeback:
                self._ways[set_index][way].dirty = True
            return AccessResult(hit=True)
        self.stat_misses += 1
        writeback = self._fill(
            set_index, tag, dirty=is_write and self.config.writeback
        )
        return AccessResult(hit=False, writeback_line=writeback)

    def _fill(self, set_index: int, tag: int, dirty: bool) -> Optional[int]:
        ways = self._ways.setdefault(set_index, {})
        tags = self._tag_to_way.setdefault(set_index, {})
        if len(ways) < self.associativity:
            way = len(ways)
            old = ways.get(way)
            if old is not None:
                del tags[old.tag]
            ways[way] = _Line(tag, dirty)
            tags[tag] = way
            self._touch(set_index, way)
            return None
        way = self._stacks[set_index][0]
        victim = ways[way]
        writeback = None
        if victim.dirty:
            writeback = (victim.tag << self._set_bits) | set_index
            self.stat_writebacks += 1
        del tags[victim.tag]
        ways[way] = _Line(tag, dirty)
        tags[tag] = way
        self._touch(set_index, way)
        return writeback

    def insert(self, line_addr: int) -> Optional[int]:
        set_index = line_addr & self._set_mask
        tag = line_addr >> self._set_bits
        if self._locate(set_index, tag) is not None:
            return None
        return self._fill(set_index, tag, dirty=False)

    def contains(self, line_addr: int) -> bool:
        set_index = line_addr & self._set_mask
        return self._locate(set_index, line_addr >> self._set_bits) is not None

    def invalidate(self, line_addr: int) -> bool:
        set_index = line_addr & self._set_mask
        tag = line_addr >> self._set_bits
        way = self._locate(set_index, tag)
        if way is None:
            return False
        del self._ways[set_index][way]
        del self._tag_to_way[set_index][tag]
        return True
