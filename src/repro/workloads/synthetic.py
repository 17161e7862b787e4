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


class _Generator:
    """The generation loop as resumable, picklable state.

    Its state is the RNG, the streams and the cursor; :meth:`fill` resumes
    the loop where the last call left it. Whole bursts are appended, and
    only the last burst of the trace is cut short (at ``length``), so
    every prefix is the one an eager loop would have produced.
    """

    def __init__(self, profile: AppProfile, seed: int, length: int) -> None:
        self.profile = profile
        self.length = length
        self.rng = make_rng(seed, "trace", profile.name)
        self.insts_per_access = 1000.0 / profile.mpki
        footprint_pages = max(
            profile.streams, profile.footprint_mb * (1 << 20) // 4096
        )
        region = max(1, footprint_pages // profile.streams)
        self.streams: List[_Stream] = []
        for index in range(profile.streams):
            stream = _Stream(index * region, region)
            stream.jump(self.rng)
            self.streams.append(stream)
        self.cursor = 0

    def fill(
        self, gaps: array, vlines: array, writes: bytearray, upto: int
    ) -> None:
        """Append bursts to the columns until they hold ``upto`` records."""
        profile, rng, streams = self.profile, self.rng, self.streams
        insts_per_access = self.insts_per_access
        cursor = self.cursor
        while len(vlines) < upto:
            # One burst: `b` accesses issued nearly back to back (they land
            # in the same ROB window, creating memory-level parallelism),
            # then a long compute stretch sized to keep the target MPKI.
            b = max(1, min(2 * profile.burst, round(rng.expovariate(1.0 / profile.burst))))
            b = min(b, self.length - len(vlines))
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
        self.cursor = cursor


def generate_trace(
    profile: AppProfile,
    seed: int = 1,
    target_insts: int = 4_000_000,
    min_records: int = 512,
    max_records: int = 40_000,
    length_override: Optional[int] = None,
) -> Trace:
    """The trace realizing ``profile``, generated as it is read.

    ``target_insts`` sizes the trace: the record count is chosen so the
    trace covers roughly that many instructions before looping (clamped to
    [min_records, max_records] to bound memory). ``length_override`` pins
    the record count exactly (used by tests). The trace starts empty and
    fills on demand (see :meth:`repro.cpu.trace.Trace.extend_to`).
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
    return Trace.on_demand(
        profile.name, num_records, _Generator(profile, seed, num_records)
    )
