"""Color-constrained physical frame allocator.

The allocator hands out frames from (channel, bank-color) bins. Each thread
carries an *allowed* set of bank colors and channels — the knobs the
partitioning policies turn. Allocation round-robins a thread's pages across
its allowed channels (preserving channel-level parallelism under bank
partitioning) and across its allowed colors (spreading its footprint over
its banks), while filling each bin sequentially so that pages allocated
together enjoy row-buffer locality.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from ..errors import AllocationError
from ..mapping import AddressMap


class _Bin:
    """Frames of one (channel, color) bin: a fresh cursor plus a free list."""

    __slots__ = ("channel", "color", "capacity", "next_fresh", "free_frames")

    def __init__(self, channel: int, color: int, capacity: int) -> None:
        self.channel = channel
        self.color = color
        self.capacity = capacity
        self.next_fresh = 0
        self.free_frames: List[int] = []

    def available(self) -> int:
        return (self.capacity - self.next_fresh) + len(self.free_frames)

    def take_slot(self) -> Optional[int]:
        """Next free slot index in this bin, or None when exhausted."""
        if self.free_frames:
            return self.free_frames.pop()
        if self.next_fresh < self.capacity:
            slot = self.next_fresh
            self.next_fresh += 1
            return slot
        return None


class ColorAwareAllocator:
    """Physical frame allocator with per-thread color/channel constraints."""

    def __init__(self, address_map: AddressMap) -> None:
        self.address_map = address_map
        org = address_map.org
        self._bins: Dict[tuple, _Bin] = {
            (ch, color): _Bin(ch, color, address_map.frames_per_bin)
            for ch in range(org.channels)
            for color in range(address_map.bank_colors)
        }
        self._all_colors = frozenset(range(address_map.bank_colors))
        self._all_channels = frozenset(range(org.channels))
        self._thread_colors: Dict[int, FrozenSet[int]] = {}
        self._thread_channels: Dict[int, FrozenSet[int]] = {}
        # Round-robin cursors so a thread's pages spread over its resources.
        self._chan_cursor: Dict[int, int] = {}
        self._color_cursor: Dict[int, int] = {}
        self.stat_allocations = 0
        self.stat_frees = 0

    # ------------------------------------------------------------------
    # Policy surface.
    # ------------------------------------------------------------------
    def set_thread_colors(self, thread_id: int, colors: Iterable[int]) -> None:
        """Restrict ``thread_id``'s future allocations to ``colors``."""
        color_set = frozenset(colors)
        if not color_set:
            raise AllocationError(f"thread {thread_id} given an empty color set")
        bad = color_set - self._all_colors
        if bad:
            raise AllocationError(f"unknown bank colors {sorted(bad)}")
        self._thread_colors[thread_id] = color_set

    def set_thread_channels(self, thread_id: int, channels: Iterable[int]) -> None:
        """Restrict ``thread_id``'s future allocations to ``channels``."""
        channel_set = frozenset(channels)
        if not channel_set:
            raise AllocationError(
                f"thread {thread_id} given an empty channel set"
            )
        bad = channel_set - self._all_channels
        if bad:
            raise AllocationError(f"unknown channels {sorted(bad)}")
        self._thread_channels[thread_id] = channel_set

    def thread_colors(self, thread_id: int) -> FrozenSet[int]:
        """Bank colors ``thread_id`` may currently allocate from."""
        return self._thread_colors.get(thread_id, self._all_colors)

    def thread_channels(self, thread_id: int) -> FrozenSet[int]:
        """Channels ``thread_id`` may currently allocate from."""
        return self._thread_channels.get(thread_id, self._all_channels)

    # ------------------------------------------------------------------
    # Allocation.
    # ------------------------------------------------------------------
    def allocate(self, thread_id: int) -> int:
        """Allocate one frame for ``thread_id`` within its constraints.

        Channels and colors are visited round-robin per thread; if the
        preferred bin is exhausted the other permitted bins are tried before
        giving up.
        """
        channels = sorted(self.thread_channels(thread_id))
        colors = sorted(self.thread_colors(thread_id))
        chan_start = self._chan_cursor.get(thread_id, 0)
        color_start = self._color_cursor.get(thread_id, 0)
        for attempt in range(len(channels) * len(colors)):
            chan_idx = (chan_start + attempt) % len(channels)
            color_idx = (color_start + attempt // len(channels)) % len(colors)
            bin_ = self._bins[(channels[chan_idx], colors[color_idx])]
            slot = bin_.take_slot()
            if slot is None:
                continue
            self._chan_cursor[thread_id] = (chan_idx + 1) % len(channels)
            if chan_idx + 1 >= len(channels):
                self._color_cursor[thread_id] = (color_idx + 1) % len(colors)
            self.stat_allocations += 1
            return self.address_map.compose_frame(
                bin_.channel, bin_.color, slot
            )
        raise AllocationError(
            f"out of frames for thread {thread_id} "
            f"(channels={channels}, colors={colors})"
        )

    def allocate_in(self, channel: int, color: int) -> int:
        """Allocate a frame from a specific bin (used by migration)."""
        bin_ = self._bins[(channel, color)]
        slot = bin_.take_slot()
        if slot is None:
            raise AllocationError(f"bin (ch{channel}, color{color}) exhausted")
        self.stat_allocations += 1
        return self.address_map.compose_frame(channel, color, slot)

    def free(self, frame: int) -> None:
        """Return a frame to its bin's free list."""
        channel, color, slot = self.address_map.frame_fields(frame)
        bin_ = self._bins[(channel, color)]
        if slot >= bin_.next_fresh:
            raise AllocationError(f"double free or never-allocated frame {frame}")
        bin_.free_frames.append(slot)
        self.stat_frees += 1

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def available_in(self, channel: int, color: int) -> int:
        """Free frames remaining in one bin."""
        return self._bins[(channel, color)].available()

    def collect_metrics(self, registry) -> None:
        """Export allocation counters and partition state into a registry."""
        registry.counter(
            "repro_osmm_frame_allocations_total", "Physical frames handed out"
        ).inc(self.stat_allocations)
        registry.counter(
            "repro_osmm_frame_frees_total", "Physical frames returned"
        ).inc(self.stat_frees)
        colors = registry.gauge(
            "repro_osmm_thread_colors",
            "Bank colors each thread may allocate from, at collect",
        )
        for thread_id in sorted(self._thread_colors):
            colors.set(
                len(self._thread_colors[thread_id]), thread=str(thread_id)
            )
