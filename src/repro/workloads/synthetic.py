"""Synthetic trace generation from application profiles.

The generator models a program as ``streams`` concurrent sequential walkers
over disjoint regions of the virtual footprint. Each access either continues
its stream's current sequential run (probability ``row_locality`` — these
become row-buffer hits) or jumps to a random location in the stream's region
(a row miss). Compute gaps between accesses are exponentially distributed
around the value that yields the profile's target MPKI.

Because streams live in different pages — and the OS spreads pages over
banks — a profile with many streams naturally exhibits high bank-level
parallelism, which is precisely the property DBP's demand estimator keys on.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..cpu.trace import Trace
from ..errors import TraceError
from ..utils import clamp, make_rng
from .profiles import AppProfile

LINES_PER_PAGE = 64  # 4 KB pages of 64 B lines


class _Stream:
    """One sequential walker over a contiguous page region."""

    __slots__ = ("base_page", "region_pages", "page", "line")

    def __init__(self, base_page: int, region_pages: int) -> None:
        self.base_page = base_page
        self.region_pages = region_pages
        self.page = 0
        self.line = 0

    def vline(self) -> int:
        return (self.base_page + self.page) * LINES_PER_PAGE + self.line

    def advance_sequential(self) -> None:
        self.line += 1
        if self.line >= LINES_PER_PAGE:
            self.line = 0
            self.page = (self.page + 1) % self.region_pages

    def jump(self, rng) -> None:
        self.page = rng.randrange(self.region_pages)
        self.line = rng.randrange(LINES_PER_PAGE)


def generate_trace(
    profile: AppProfile,
    seed: int = 1,
    target_insts: int = 4_000_000,
    min_records: int = 512,
    max_records: int = 40_000,
    length_override: Optional[int] = None,
) -> Trace:
    """Generate a trace realizing ``profile``.

    ``target_insts`` sizes the trace: the record count is chosen so the
    trace covers roughly that many instructions before looping (clamped to
    [min_records, max_records] to bound memory). ``length_override`` pins
    the record count exactly (used by tests).
    """
    if length_override is not None:
        num_records = length_override
    else:
        num_records = int(
            clamp(
                target_insts * profile.mpki / 1000.0, min_records, max_records
            )
        )
    if num_records < 1:
        raise TraceError("trace must contain at least one record")
    rng = make_rng(seed, "trace", profile.name)
    insts_per_access = 1000.0 / profile.mpki
    footprint_pages = max(
        profile.streams, profile.footprint_mb * (1 << 20) // 4096
    )
    region = max(1, footprint_pages // profile.streams)
    streams: List[_Stream] = []
    for index in range(profile.streams):
        stream = _Stream(index * region, region)
        stream.jump(rng)
        streams.append(stream)
    # The trace's own columns, filled in place and handed over uncopied.
    gaps, vlines, writes = array("I"), array("Q"), bytearray()
    cursor = 0
    while len(vlines) < num_records:
        # One burst: `b` accesses issued nearly back to back (they land in
        # the same ROB window, creating memory-level parallelism), then a
        # long compute stretch sized to keep the target MPKI.
        b = max(1, min(2 * profile.burst, round(rng.expovariate(1.0 / profile.burst))))
        b = min(b, num_records - len(vlines))
        small_gaps = [rng.randrange(3) for _ in range(b - 1)]
        big_mean = max(0.0, b * insts_per_access - b - sum(small_gaps))
        big_gap = int(rng.expovariate(1.0 / big_mean)) if big_mean > 0 else 0
        gaps.append(big_gap)
        gaps.extend(small_gaps)
        for j in range(b):
            stream = streams[(cursor + j) % len(streams)]
            if rng.random() < profile.row_locality:
                stream.advance_sequential()
            else:
                stream.jump(rng)
            vlines.append(stream.vline())
            writes.append(rng.random() < profile.write_frac)
        cursor += b
    return Trace.from_columns(profile.name, gaps, vlines, writes)
