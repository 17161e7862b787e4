"""Discrete-event engine.

A single global agenda of (cycle, callback) events ordered by time, with
stable FIFO ordering among same-cycle events. Every component — cores,
controllers, the epoch manager — advances exclusively through this agenda,
which is what allows the simulator to skip dead time instead of ticking
every cycle.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

EventCallback = Callable[[int], None]


class SimProfiler:
    """Wall-clock attribution of event time to simulator components.

    Attached to the :class:`Engine` on demand (``System(profile=True)``);
    the unprofiled run loop is untouched. Each event's elapsed wall time is
    charged to the class that owns its callback — bound methods report
    their ``__self__`` class, partials the owner of the function they wrap
    (a read completion, ``partial(core._on_read_complete, ...)``, lands on
    "Core"), and plain functions the class their qualified name is nested
    in.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.events: Dict[str, int] = {}

    @staticmethod
    def component_of(callback: Callable) -> str:
        while isinstance(callback, functools.partial):
            callback = callback.func
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            return type(owner).__name__
        qualname = getattr(callback, "__qualname__", "")
        if isinstance(qualname, str) and qualname:
            return qualname.split(".", 1)[0]
        # Callable instances have no __qualname__ of their own: charge the
        # class implementing __call__ rather than lumping them as unknown.
        return type(callback).__name__

    def breakdown(self) -> List[Tuple[str, float, int]]:
        """(component, seconds, events), heaviest first."""
        return sorted(
            (
                (name, self.seconds[name], self.events.get(name, 0))
                for name in self.seconds
            ),
            key=lambda item: (-item[1], item[0]),
        )


class Engine:
    """Minimal but strict discrete-event loop."""

    def __init__(
        self,
        horizon: Optional[int] = None,
        profiler: Optional[SimProfiler] = None,
    ) -> None:
        self.horizon = horizon
        self.profiler = profiler
        self._agenda: List[Tuple[int, int, EventCallback]] = []
        self._sequence = itertools.count()
        self._now = 0
        self._running = False
        self.stat_events = 0
        #: High-water mark of the agenda: the deepest the event heap ever
        #: got. Updated at both push sites (here and the controller's
        #: direct heappush); the kernel-equivalence oracle must reproduce
        #: it, because the event stream is identical by contract.
        self.stat_agenda_peak = 0

    @property
    def now(self) -> int:
        """Current simulated cycle."""
        return self._now

    def schedule(self, cycle: int, callback: EventCallback) -> None:
        """Run ``callback(cycle)`` when simulated time reaches ``cycle``.

        Scheduling in the past is a simulator bug and raises immediately —
        silent time travel produces unexplainable results.
        """
        if cycle < self._now:
            raise SimulationError(
                f"event scheduled at {cycle}, before current time {self._now}"
            )
        heapq.heappush(self._agenda, (cycle, next(self._sequence), callback))
        if len(self._agenda) > self.stat_agenda_peak:
            self.stat_agenda_peak = len(self._agenda)

    def run(self, until: Optional[int] = None) -> int:
        """Drain the agenda; returns the final simulated cycle.

        ``until`` (or the constructor ``horizon``) bounds the run: events at
        or beyond the bound stay in the agenda and time stops at the bound.
        A bound behind the current time raises — moving simulated time
        backwards past already-executed events would silently corrupt every
        timestamp taken afterwards.
        """
        if self._running:
            raise SimulationError("engine re-entered")
        bound = until if until is not None else self.horizon
        if bound is not None and bound < self._now:
            raise SimulationError(
                f"run(until={bound}) would rewind time from {self._now}"
            )
        self._running = True
        events = 0
        pop = heapq.heappop
        agenda = self._agenda
        profiler = self.profiler
        try:
            if profiler is None:
                if bound is None:
                    while agenda:
                        cycle, _seq, callback = pop(agenda)
                        self._now = cycle
                        callback(cycle)
                        events += 1
                else:
                    while agenda and agenda[0][0] < bound:
                        cycle, _seq, callback = pop(agenda)
                        self._now = cycle
                        callback(cycle)
                        events += 1
                    self._now = bound
            else:
                # Duplicated loop so the common unprofiled path pays no
                # per-event clock reads or attribution lookups. Attribution
                # is memoized: bound methods key on their owner's class,
                # partials on the callable they wrap and functions on their
                # (shared) code object, so the name resolution in
                # component_of runs once per call site, not once per event.
                # The clock is read once per event: an event is charged
                # from the previous stamp to its own, so the (small,
                # uniform) dispatch overhead lands on the component that
                # ran rather than disappearing untracked.
                perf_counter = time.perf_counter
                partial = functools.partial
                component_of = profiler.component_of
                seconds = profiler.seconds
                counts = profiler.events
                names: Dict[object, str] = {}
                names_get = names.get
                last_stamp = perf_counter()
                while agenda:
                    cycle = agenda[0][0]
                    if bound is not None and cycle >= bound:
                        self._now = bound
                        break
                    cycle, _seq, callback = pop(agenda)
                    self._now = cycle
                    callback(cycle)
                    stamp = perf_counter()
                    elapsed = stamp - last_stamp
                    last_stamp = stamp
                    owner = getattr(callback, "__self__", None)
                    if type(callback) is partial:
                        key = callback.func
                    elif owner is not None:
                        key = owner.__class__
                    else:
                        key = getattr(callback, "__code__", None)
                    name = names_get(key)
                    if name is None:
                        name = component_of(callback)
                        if key is not None:
                            names[key] = name
                    if name in seconds:
                        seconds[name] += elapsed
                        counts[name] += 1
                    else:
                        seconds[name] = elapsed
                        counts[name] = 1
                    events += 1
                else:
                    if bound is not None:
                        self._now = bound
        finally:
            self.stat_events += events
            self._running = False
        return self._now

    def pending_events(self) -> int:
        """Events still in the agenda (cheap introspection for tests)."""
        return len(self._agenda)
