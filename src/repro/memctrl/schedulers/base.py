"""Scheduler interface and the profile snapshot it may consume.

A scheduler's only job is to order requests: the controller asks for a
priority ``key`` per request (lower sorts first) and serves the best-key
request whose next DRAM command is legal *now*. Policies that adapt over
time (ATLAS, TCM) receive periodic quantum callbacks carrying a
:class:`ProfileSnapshot` of per-thread behaviour measured by the shared
runtime profiler.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..request import Request


@dataclass(frozen=True)
class ThreadProfile:
    """One thread's measured behaviour over the last profiling epoch."""

    thread_id: int
    mpki: float  # memory requests per kilo-instruction
    rbh: float  # row-buffer hit rate in [0, 1]
    blp: float  # mean banks with outstanding requests, when any
    bandwidth: float  # fraction of data-bus time consumed
    requests: int  # requests issued this epoch


@dataclass(frozen=True)
class ProfileSnapshot:
    """Per-thread profiles at a quantum boundary."""

    cycle: int
    threads: Dict[int, ThreadProfile] = field(default_factory=dict)

    def profile(self, thread_id: int) -> ThreadProfile:
        """Profile for one thread (a zero profile if never seen)."""
        profile = self.threads.get(thread_id)
        if profile is None:
            profile = ThreadProfile(thread_id, 0.0, 0.0, 0.0, 0.0, 0)
        return profile


class Scheduler(abc.ABC):
    """Base class for request-ordering policies.

    One scheduler instance serves all channels, because thread-level
    priority state (ranks, clusters, batches) is system-wide.
    """

    #: Set by subclasses; used in reports.
    name = "base"
    #: Quantum period in CPU cycles, or None for stateless policies.
    quantum_cycles: Optional[int] = None

    def __init__(self, num_threads: int) -> None:
        self.num_threads = num_threads
        self._controllers: list = []

    def attach_controller(self, controller) -> None:
        """Called by the system builder for each channel controller."""
        self._controllers.append(controller)

    @abc.abstractmethod
    def key(self, request: Request, row_hit: bool, now: int) -> Tuple:
        """Priority key; lower sorts first. Must be total and deterministic."""

    def thread_priority(self, thread_id: int, now: int) -> Optional[Tuple]:
        """Fast path for thread-level policies.

        When a scheduler's ordering is "thread priority, then row hit, then
        age", it can return the per-thread prefix here and the controller
        composes ``prefix + (row_miss, arrival, req_id)`` without calling
        :meth:`key` per request — the controller scan is the simulator's
        hottest loop. Return None (the default) when priority is genuinely
        per-request; the controller then falls back to :meth:`key`.
        """
        return None

    def ordering_token(self, now: int) -> Optional[Tuple]:
        """Cache-invalidation token for the controller's per-bank best cache.

        Contract: as long as the token compares equal, :meth:`key` (and
        :meth:`thread_priority`) must be a pure function of
        ``(request, row_hit)`` — the controller's fast kernel then reuses a
        bank's cached best request instead of rescanning its queue every
        decision. Any state change that can reorder requests (a quantum
        rank update, a blacklist change, a batch re-formation, a shuffle
        slot boundary) must change the token *at or before* the cycle the
        new ordering takes effect.

        Return None (the default) to disable caching: the controller then
        rescans every occupied bank's queue on every decision.
        """
        return None

    # ------------------------------------------------------------------
    # Optional hooks.
    # ------------------------------------------------------------------
    def on_arrival(self, request: Request, now: int) -> None:
        """A request entered a controller queue."""

    def on_served(self, request: Request, now: int) -> None:
        """A request's CAS command was issued."""

    def on_quantum(self, snapshot: ProfileSnapshot) -> None:
        """A profiling quantum ended (only if ``quantum_cycles`` is set)."""

    def telemetry_state(self) -> Dict[str, object]:
        """JSON-friendly snapshot of adaptive state, for the telemetry layer.

        Stateless schedulers have nothing to report; adaptive ones (TCM,
        PAR-BS, ATLAS) override with their current clustering/ranking.
        """
        return {}

    def collect_metrics(self, registry) -> None:
        """Export adaptive-state counters into a metrics registry.

        Stateless schedulers export nothing; adaptive ones override.
        """

    # ------------------------------------------------------------------
    def pending_reads(self):
        """All queued (unserved) reads across channels, for batch policies."""
        for controller in self._controllers:
            yield from controller.read_queue
