"""Event-driven interval model of an out-of-order core.

The model reproduces the processor abstraction this paper family simulates —
a W-wide core with an R-entry ROB and MSHR-limited memory-level parallelism —
at a cost of O(1) work per *memory request* instead of per cycle:

* Instructions retire in order. A block of ``gap`` non-memory instructions
  retires at ``width`` per cycle; a read retires one cycle after its data
  returns; writes never block retirement (they drain through a store buffer,
  the standard simplification). Retirement is charged per *record*:
  each (gap, memory-instruction) bundle costs ``ceil((gap+1)/width)``
  cycles, with no packing of one record's instructions into another
  record's final retire cycle — the usual interval-model granularity,
  which overstates compute time by at most ``(width-1)/(gap+1)`` per
  record and affects alone and shared runs identically (so it largely
  cancels out of the slowdown-based metrics). The per-cycle reference
  model in ``tests/test_core_reference.py`` pins down these semantics.
* A memory instruction issues its request the cycle it enters the ROB, i.e.
  when retirement comes within ``rob_size`` instructions of it, provided an
  MSHR is free (reads only — writes are fire-and-forget).
* Retirement is allowed to be *computed* ahead of simulated time by at most
  ``ahead_limit`` cycles (it is deterministic once request completions are
  known), which bounds the skew of epoch-based profiling counters while
  keeping the event count low.

The core talks to the rest of the system through a ``MemoryPort``: a single
``access`` call that either returns a synchronously known completion cycle
(a cache hit) or arranges a callback (a DRAM access).
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Optional, Protocol, Tuple

from ..config import CoreConfig
from ..errors import SimulationError
from .trace import Trace


class MemoryPort(Protocol):
    """What a core needs from the memory system."""

    #: Cycles the core adds to every asynchronous read completion: the
    #: fill from the line's arrival (or the request's issue, if the line
    #: was already arriving) to its data reaching the pipeline.
    fill_latency: int

    def access(
        self,
        thread_id: int,
        vline: int,
        is_write: bool,
        at: int,
        on_complete: Optional[Callable[[int], None]],
    ) -> Optional[int]:
        """Perform one access at cycle ``at``.

        Returns the completion cycle if it is synchronously known (a cache
        hit, fill included), otherwise ``None`` and ``on_complete(cycle)``
        fires later with the cycle the line arrived; the core adds
        :attr:`fill_latency` itself. ``on_complete`` is a
        ``functools.partial`` of a bound method, which the port may put on
        the engine agenda or into a request as is.
        """


class WakeScheduler(Protocol):
    """Minimal engine surface the core uses to resume after an ahead-cap."""

    def schedule(self, cycle: int, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(cycle)`` when simulated time reaches ``cycle``."""


class CoreStats:
    """Counters a core exposes to the runner and the profiler."""

    __slots__ = (
        "retired_insts",
        "reads_issued",
        "writes_issued",
        "finished",
    )

    def __init__(self) -> None:
        self.retired_insts = 0
        self.reads_issued = 0
        self.writes_issued = 0
        self.finished = False


#: Records the core extends its trace by whenever its reads near the end
#: of the filled prefix (a fixed step: the fill never runs far ahead).
_FILL_STEP = 256

# History entry fields: (m_prev, m_end, t_start, t_end, gap)
_HistEntry = Tuple[int, int, int, int, int]


class Core:
    """Replays one trace against the memory system until ``horizon``."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: Trace,
        port: MemoryPort,
        scheduler: WakeScheduler,
        horizon: int,
        ahead_limit: int = 8192,
    ) -> None:
        if horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.port = port
        self.scheduler = scheduler
        self.horizon = horizon
        self.ahead_limit = ahead_limit
        self.stats = CoreStats()
        # Virtual (looping) record indexing over the trace's filled prefix:
        # the live columns grow in place as _fill_ahead extends the trace.
        self._n = len(trace)
        self._gaps = trace._gaps
        self._vlines = trace._vlines
        self._writes = trace._writes
        self._cum = trace._cum
        #: Every record index the core reads stays below this bound (no
        #: bound once the trace is complete and indices loop); looping
        #: needs completion, so the loop length is known only then.
        self._fill_bound = 0
        self._insts_per_loop = 0
        # Hoisted config constants for the per-record hot loops.
        self._width = config.width
        self._mshrs = config.mshrs
        self._rob_size = config.rob_size
        self._fill = port.fill_latency
        # Retirement state.
        self._retire_idx = 0
        self._retire_clock = 0
        self._retired_processed = 0  # instructions retired (processed)
        self._history: Deque[_HistEntry] = deque()
        self._history_span = config.rob_size + 2
        # Issue state.
        self._issue_idx = 0
        self._last_issue = -1
        self._issue_floor = 0
        self._outstanding_reads = 0
        self._complete: Dict[int, int] = {}
        self._wake_scheduled = False
        self._fill_ahead()

    # ------------------------------------------------------------------
    # Virtual-index helpers (traces loop past their end).
    # ------------------------------------------------------------------
    def _fill_ahead(self) -> None:
        """Extend the trace a fixed step past the furthest index the core
        may read: retirement stops ``rob_size`` records past the next
        issue (see :meth:`_advance_retirement`), and
        :meth:`_crossing_time` reads the record retirement is parked on."""
        wanted = self._issue_idx + self._rob_size + _FILL_STEP
        filled = self.trace.extend_to(wanted)
        if filled == self._n:
            self._fill_bound = math.inf
            self._insts_per_loop = self.trace.total_insts
        else:
            self._fill_bound = filled

    def _m(self, virt_idx: int) -> int:
        loops, i = divmod(virt_idx, self._n)
        return loops * self._insts_per_loop + self._cum[i]

    # ------------------------------------------------------------------
    # Public surface.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick the core off at cycle 0."""
        self.process(0)

    def process(self, now: int) -> None:
        """Advance retirement and issue as far as currently determined."""
        while True:
            progressed = False
            if not self.stats.finished:
                progressed = self._advance_retirement(now)
            # Issue even after the horizon froze retirement: non-blocking
            # requests (writes, fills) whose issue time falls before the
            # horizon still belong on the memory system.
            progressed |= self._issue_requests(now)
            if not progressed:
                break
        if self.stats.finished:
            return
        # If the only thing stopping retirement is the ahead-cap, resume when
        # simulated time catches up.
        if (
            not self._wake_scheduled
            and self._retire_clock >= now + self.ahead_limit
        ):
            self._wake_scheduled = True
            self.scheduler.schedule(self._retire_clock, self._on_wake)

    def _on_wake(self, now: int) -> None:
        self._wake_scheduled = False
        self.process(now)

    def _on_read_complete(
        self, virt_idx: int, t_issue: int, cycle: int
    ) -> None:
        # A read that piggybacked on an in-flight fill may see the line
        # arrive before it issued; its data still cannot return earlier.
        now = max(cycle, t_issue) + self._fill
        if self._outstanding_reads >= self.config.mshrs:
            # This completion frees the MSHR that was gating issue.
            self._issue_floor = max(self._issue_floor, now)
        self._outstanding_reads -= 1
        self._complete[virt_idx] = now
        self.process(now)

    # ------------------------------------------------------------------
    # Retirement.
    # ------------------------------------------------------------------
    def _advance_retirement(self, now: int) -> bool:
        width = self._width
        limit = now + self.ahead_limit
        progressed = False
        gaps = self._gaps
        writes = self._writes
        n = self._n
        complete = self._complete
        while self._retire_clock < limit:
            idx = self._retire_idx
            # Retirement may pass unissued writes (they never block), but
            # not so far that the crossing-time history for those writes'
            # issue thresholds gets evicted; the process loop alternates
            # back to issuing once this cap is hit.
            if idx - self._issue_idx >= self._history_span - 2:
                break
            i = idx % n
            gap = gaps[i]
            completion: Optional[int] = None
            if not writes[i]:
                completion = complete.get(idx)
                if completion is None:
                    break  # head read still outstanding (or not yet issued)
            t_start = self._retire_clock
            t_end = t_start - (-(gap + 1) // width)
            if completion is not None:
                t_end = max(t_end, completion + 1)
            if t_end >= self.horizon:
                self._finish_at_horizon(t_start, gap, width)
                return True
            m_prev = self._retired_processed
            m_end = self._m(idx)
            self._history.append((m_prev, m_end, t_start, t_end, gap))
            if len(self._history) > self._history_span:
                self._history.popleft()
            self._retire_idx += 1
            self._retire_clock = t_end
            self._retired_processed = m_end
            if completion is not None:
                del self._complete[idx]
            progressed = True
        return progressed

    def _finish_at_horizon(self, t_start: int, gap: int, width: int) -> None:
        """Freeze the core, crediting the instructions retired by horizon."""
        partial = 0
        if self.horizon > t_start:
            partial = min(gap, width * (self.horizon - t_start))
        self.stats.retired_insts = self._retired_processed + partial
        self.stats.finished = True

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue_requests(self, now: int) -> bool:
        progressed = False
        vlines = self._vlines
        writes = self._writes
        n = self._n
        mshrs = self._mshrs
        rob_size = self._rob_size
        while True:
            idx = self._issue_idx
            i = idx % n
            is_write = writes[i]
            if not is_write and self._outstanding_reads >= mshrs:
                break
            threshold = self._m(idx) - rob_size
            cross = self._crossing_time(threshold)
            if cross is None:
                break  # ROB window has not reached this record yet
            t_issue = max(cross, self._last_issue + 1, self._issue_floor)
            if t_issue >= self.horizon:
                break  # nothing past the horizon matters
            self._dispatch(idx, vlines[i], is_write, t_issue)
            self._issue_idx += 1
            if self._issue_idx + rob_size >= self._fill_bound:
                self._fill_ahead()
            self._last_issue = t_issue
            progressed = True
        return progressed

    def _dispatch(
        self, virt_idx: int, vline: int, is_write: int, t_issue: int
    ) -> None:
        if is_write:
            self.port.access(self.core_id, vline, True, t_issue, None)
            self.stats.writes_issued += 1
            return
        self._outstanding_reads += 1
        self.stats.reads_issued += 1
        callback = partial(self._on_read_complete, virt_idx, t_issue)
        sync = self.port.access(self.core_id, vline, False, t_issue, callback)
        if sync is not None:
            # Synchronously known latency (cache hit): complete inline.
            self._outstanding_reads -= 1
            self._complete[virt_idx] = sync

    def _crossing_time(self, threshold: int) -> Optional[int]:
        """Cycle at which cumulative retirement reaches ``threshold``.

        Returns None when retirement has not been processed that far.
        Thresholds are queried in non-decreasing order, so consumed history
        can be discarded.
        """
        if threshold <= 0:
            return 0
        if threshold > self._retired_processed:
            # The threshold may fall inside the *gap* (non-memory) phase of
            # the record retirement is currently parked on: those
            # instructions retire on a schedule that is already known even
            # though the record's memory instruction is still outstanding.
            pending_gap = self._gaps[self._retire_idx % self._n]
            pending_limit = self._retired_processed + pending_gap
            if threshold <= pending_limit:
                offset = threshold - self._retired_processed
                return self._retire_clock - (-offset // self._width)
            return None
        history = self._history
        while history and history[0][1] < threshold:
            history.popleft()
        if not history:
            raise SimulationError(
                "retirement history evicted too early "
                f"(threshold={threshold})"
            )
        m_prev, _m_end, t_start, t_end, gap = history[0]
        offset = threshold - m_prev
        if offset <= 0:
            return t_start
        if offset <= gap:
            return min(t_end, t_start - (-offset // self._width))
        return t_end

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    @property
    def retired_insts_processed(self) -> int:
        """Instructions whose retirement has been computed so far."""
        return self._retired_processed

    def finalize(self) -> None:
        """Freeze the retirement counters at end of run (idempotent).

        When the run was cut short by the engine (e.g. all cores idle),
        everything processed retired before the horizon. Called by the
        system after the event loop drains; never during simulation —
        ``finished`` gates retirement in :meth:`process`.
        """
        if not self.stats.finished:
            self.stats.retired_insts = self._retired_processed
            self.stats.finished = True

    def ipc(self) -> float:
        """Retired IPC over the full horizon.

        Pure: safe to call mid-run (an epoch-boundary probe sees the
        instructions retired so far) — only :meth:`finalize` and
        :meth:`_finish_at_horizon` freeze the stats.
        """
        retired = (
            self.stats.retired_insts
            if self.stats.finished
            else self._retired_processed
        )
        return retired / self.horizon
