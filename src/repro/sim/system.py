"""Full-system assembly.

:class:`System` wires every substrate together for one simulation run:
traces → cores → per-core private caches → page-table translation →
channel controllers → DDR3 channels, with the partitioning policy steering
the allocator and the shared profiler feeding both the policy and any
adaptive scheduler. One :class:`System` is one run; the experiment runner
builds many.
"""

from __future__ import annotations

import gc
import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..baselines.base import PartitionContext, PartitionPolicy
from ..baselines.shared import SharedPolicy
from ..cache import Cache
from ..config import SystemConfig
from ..core.profiler import ThreadProfiler
from ..cpu.core import Core
from ..cpu.prefetcher import StridePrefetcher
from ..cpu.trace import Trace
from ..dram.channel import Channel
from ..dram.validator import ProtocolValidator
from ..errors import SimulationError
from ..mapping import AddressMap
from ..memctrl.controller import ChannelController
from ..memctrl.request import Request
from ..memctrl.schedulers import make_scheduler
from ..metrics.registry import MetricsRegistry
from ..osmm import ColorAwareAllocator, MigrationEngine, MigrationPlan, PageTable
from ..records import SystemResult, ThreadResult
from ..telemetry.spans import current_tracer, now_us
from .engine import Engine, SimProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..telemetry import TelemetryRecorder

#: Cycles between successive migration copy pairs, so a page move does not
#: slam the queues in a single cycle.
_MIGRATION_SPACING = 16


def _retired_insts(cores: List[Core], thread_id: int) -> int:
    # The profiler's view of retirement: it holds the core list, not the
    # System, so a finished System has no cycle through its profiler.
    return cores[thread_id].retired_insts_processed


class System:
    """One fully-wired simulation instance (single use)."""

    def __init__(
        self,
        config: SystemConfig,
        traces: List[Trace],
        horizon: int,
        policy: Optional[PartitionPolicy] = None,
        validate: bool = False,
        ahead_limit: int = 8192,
        telemetry: Optional["TelemetryRecorder"] = None,
        profile: bool = False,
    ) -> None:
        if len(traces) != config.num_cores:
            raise SimulationError(
                f"{len(traces)} traces for {config.num_cores} cores"
            )
        self.config = config
        self.traces = traces
        self.horizon = horizon
        self.policy = policy if policy is not None else SharedPolicy()
        self.validate = validate
        # Wall-clock profiler (distinct from self.profiler, the in-sim
        # ThreadProfiler measuring MPKI/RBH/BLP).
        self.sim_profiler = SimProfiler() if profile else None
        self._wall_seconds: Optional[float] = None
        self.engine = Engine(horizon, profiler=self.sim_profiler)
        timings = config.timings
        self.address_map = AddressMap(
            config.organization,
            config.osmm.page_size,
            bank_xor=config.bank_xor_interleave,
        )
        self.allocator = ColorAwareAllocator(self.address_map)
        self.page_tables: Dict[int, PageTable] = {
            t: PageTable(t, self.allocator, self.address_map)
            for t in range(config.num_cores)
        }
        self.migration = (
            MigrationEngine(
                self.allocator,
                self.address_map,
                config.osmm.migration_budget_pages,
                config.osmm.migration_lines_per_page,
                mode=config.osmm.migration_mode,
            )
            if config.osmm.migration_enabled
            else None
        )
        self.scheduler = make_scheduler(
            config.controller.scheduler,
            num_threads=config.num_cores,
            **config.controller.scheduler_params,
        )
        self.channels: List[Channel] = []
        self.controllers: List[ChannelController] = []
        for channel_id in range(config.organization.channels):
            channel = Channel(
                channel_id,
                config.organization.ranks_per_channel,
                config.organization.banks_per_rank,
                timings,
                clock_ratio=config.clock_ratio,
                refresh_enabled=config.controller.refresh_enabled,
            )
            if validate:
                channel.enable_logging()
            controller = ChannelController(
                channel,
                config.controller,
                self.scheduler,
                self.engine,
            )
            self.channels.append(channel)
            self.controllers.append(controller)
        self.caches: Dict[int, Cache] = {
            t: Cache(config.cache) for t in range(config.num_cores)
        }
        self.prefetchers: Dict[int, StridePrefetcher] = {
            t: StridePrefetcher(config.prefetcher)
            for t in range(config.num_cores)
        }
        # Physical lines a prefetch is currently fetching, each with the
        # demand completions waiting on the fill.
        self._prefetch_inflight: Dict[int, list] = {}
        #: MemoryPort: cycles from a line's arrival to its data reaching the
        #: core, added by the core to every asynchronous read completion.
        self.fill_latency = config.cache.hit_latency
        # Hoisted config constants and per-thread bound methods for the
        # per-access hot path (thread ids are dense 0..n-1).
        self._prefetch_enabled = self.config.prefetcher.enabled
        self._translate = [
            self.page_tables[t].translate_line
            for t in range(config.num_cores)
        ]
        self._cache_access = [
            self.caches[t].access for t in range(config.num_cores)
        ]
        self.cores: List[Core] = [
            Core(
                core_id=t,
                config=config.core,
                trace=traces[t],
                port=self,
                scheduler=self.engine,
                horizon=horizon,
                ahead_limit=ahead_limit,
            )
            for t in range(config.num_cores)
        ]
        self.profiler = ThreadProfiler(
            num_threads=config.num_cores,
            burst_cycles=timings.tBURST,
            retired_insts_of=partial(_retired_insts, self.cores),
        )
        for controller in self.controllers:
            controller.add_listener(self.profiler)
        self.context = PartitionContext(
            allocator=self.allocator,
            address_map=self.address_map,
            page_tables=self.page_tables,
            migration=self.migration,
            inject_copy_traffic=self._inject_copy_traffic,
        )
        # The scheduler's quantum and the policy's epoch run on independent
        # cadences; each consumer fires only at multiples of its own period.
        self._next_quantum = self.scheduler.quantum_cycles
        self._next_policy = self.policy.epoch_cycles
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.controllers, self.policy, self.scheduler)
        self._ran = False

    # ------------------------------------------------------------------
    # Epoch plumbing. The profiler is snapshot once per boundary *cycle*
    # (both consumers read the same cheap counters, as in hardware), but
    # the scheduler's quantum and the policy's repartitioning epoch are
    # scheduled independently: a 25k TCM quantum must not drag a 50k DBP
    # epoch down to 25k, or claim C2's cadence sensitivity is distorted.
    # ------------------------------------------------------------------
    def _next_boundary(self) -> Optional[int]:
        dues = [
            due
            for due in (self._next_quantum, self._next_policy)
            if due is not None
        ]
        return min(dues) if dues else None

    def _on_epoch(self, now: int) -> None:
        # Span tracing is process-global, never stored on the system;
        # boundaries are rare, so the lookup is off the hot path entirely.
        tracer = current_tracer()
        started = now_us() if tracer is not None else 0
        snapshot = self.profiler.snapshot(now)
        fired_quantum = self._next_quantum == now
        fired_policy = self._next_policy == now
        if fired_quantum:
            self.scheduler.on_quantum(snapshot)
            self._next_quantum = now + self.scheduler.quantum_cycles
        if fired_policy:
            self.policy.on_epoch(snapshot, self.context)
            # Page-access hotness ranks migration candidates, so its
            # window is the policy's epoch, not the profiling boundary.
            for table in self.page_tables.values():
                table.reset_access_counts()
            self._next_policy = now + self.policy.epoch_cycles
        if self.telemetry is not None:
            self.telemetry.on_epoch(now, snapshot, fired_quantum, fired_policy)
        if tracer is not None:
            name = "policy-epoch" if fired_policy else "quantum"
            tracer.complete(name, started, now_us() - started, cycle=now)
        next_due = self._next_boundary()
        if next_due is not None and next_due < self.horizon:
            self.engine.schedule(next_due, self._on_epoch)

    # ------------------------------------------------------------------
    # MemoryPort implementation (what cores call).
    # ------------------------------------------------------------------
    def access(
        self,
        thread_id: int,
        vline: int,
        is_write: bool,
        at: int,
        on_complete: Optional[Callable[[int], None]],
    ) -> Optional[int]:
        pline = self._translate[thread_id](vline)
        if self._prefetch_enabled:
            self._maybe_prefetch(thread_id, vline, pline, at)
        result = self._cache_access[thread_id](pline, is_write)
        if result.hit:
            if is_write:
                return None
            return at + self.fill_latency
        in_flight = self._prefetch_inflight.get(pline)
        if in_flight is not None:
            # A prefetch already fetched this line: piggyback on its fill
            # instead of issuing a duplicate DRAM request.
            if not is_write and on_complete is not None:
                in_flight.append(on_complete)
            return None
        if result.writeback_line is not None:
            self._send_request(
                thread_id, result.writeback_line, True, at, None, False
            )
        if is_write:
            # Write-allocate: the miss fetches the line (a non-blocking
            # read); the dirty data drains later as a writeback.
            self._send_request(thread_id, pline, False, at, None, False)
            return None
        self._send_request(thread_id, pline, False, at, on_complete, False)
        return None

    def _maybe_prefetch(
        self, thread_id: int, vline: int, pline: int, at: int
    ) -> None:
        """Train the core's stride prefetcher and issue its requests.

        Prefetches are page-bounded, so their physical lines share the
        demand access's frame; fills insert into the cache on completion,
        and demand reads arriving meanwhile wait on the in-flight fill.
        Prefetch traffic carries the issuing thread's id and therefore
        counts toward its measured bandwidth and MPKI, as in hardware.
        """
        targets = self.prefetchers[thread_id].observe(vline)
        if not targets:
            return
        cache = self.caches[thread_id]
        page_mask = (1 << self.address_map.page_line_bits) - 1
        for target in targets:
            target_pline = (pline & ~page_mask) | (target & page_mask)
            if cache.contains(target_pline):
                continue
            if target_pline in self._prefetch_inflight:
                continue
            self._prefetch_inflight[target_pline] = []
            callback = partial(self._finish_prefetch, thread_id, target_pline)
            self._send_request(thread_id, target_pline, False, at, callback, False)

    def _finish_prefetch(self, thread_id: int, pline: int, cycle: int) -> None:
        writeback = self.caches[thread_id].insert(pline)
        if writeback is not None:
            self._send_request(thread_id, writeback, True, cycle, None, False)
        for waiter in self._prefetch_inflight.pop(pline, []):
            waiter(cycle)

    def _send_request(
        self,
        thread_id: int,
        pline: int,
        is_write: bool,
        at: int,
        on_complete: Optional[Callable[[int], None]],
        is_migration: bool,
    ) -> None:
        loc = self.address_map.decompose_line(pline)
        request = Request(
            thread_id, is_write, pline, loc, at, on_complete, is_migration
        )
        controller = self.controllers[loc.channel]
        now = self.engine.now
        if at <= now:
            controller.enqueue(request, now)
        else:
            self.engine.schedule(at, partial(controller.enqueue, request))

    # ------------------------------------------------------------------
    # Migration traffic.
    # ------------------------------------------------------------------
    def _inject_copy_traffic(self, plan: MigrationPlan) -> None:
        tracer = current_tracer()
        started = now_us() if tracer is not None else 0
        now = self.engine.now
        for index, (src, dst) in enumerate(plan.copy_lines):
            at = now + index * _MIGRATION_SPACING
            if at >= self.horizon:
                break
            self._send_request(plan.thread_id, src, False, at, None, True)
            self._send_request(plan.thread_id, dst, True, at, None, True)
        cache = self.caches[plan.thread_id]
        lines_per_page = 1 << self.address_map.page_line_bits
        budget = (
            self.migration.budget_pages if self.migration is not None else 0
        )
        # Only the costed (hottest) moves are likely cache-resident; stale
        # lines of cold remapped pages age out naturally.
        for _vpage, old_frame, _new_frame in plan.moves[:budget]:
            for offset in range(lines_per_page):
                cache.invalidate(
                    self.address_map.line_in_frame(old_frame, offset)
                )
        if tracer is not None:
            tracer.complete(
                "migration-burst",
                started,
                now_us() - started,
                cycle=now,
                thread=plan.thread_id,
                copy_lines=len(plan.copy_lines),
                moves=len(plan.moves),
            )

    # ------------------------------------------------------------------
    # Run.
    # ------------------------------------------------------------------
    def run(self) -> SystemResult:
        """Execute the simulation to the horizon; single use.

        On return the System has released its run-time wiring (see
        :meth:`_release`): the result, stats, caches, page tables, the
        profiler, :meth:`metrics_registry` and :meth:`profile_report` stay
        readable, and dropping the System frees it by reference counting.
        """
        if self._ran:
            raise SimulationError("System instances are single use")
        self._ran = True
        start = (
            time.perf_counter() if self.sim_profiler is not None else None
        )
        self.policy.initialize(self.context)
        for core in self.cores:
            core.start()
        first = self._next_boundary()
        if first is not None and first < self.horizon:
            self.engine.schedule(first, self._on_epoch)
        # The event loop allocates heavily (keys, commands, events) but the
        # objects are overwhelmingly acyclic and die by refcount; cyclic-gc
        # passes over the live heap are pure overhead at this allocation
        # rate, so collection is paused for the duration of the run.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        if start is not None:
            self._wall_seconds = time.perf_counter() - start
        return self._finish()

    def _finish(self) -> SystemResult:
        """Close the run (validation, the result), then :meth:`_release`
        the wiring; nothing simulated runs after this."""
        if self.validate:
            self._validate_command_streams()
        result = self._collect()
        self._release()
        return result

    def _release(self) -> None:
        """Drop the wiring only a running simulation needs.

        A running System is a web of reference cycles (cores and the
        policy context call back into it, controllers and the scheduler
        name each other, the agenda holds bound methods). Cutting them
        here lets reference counting free a finished System as soon as
        its caller drops it, instead of leaving it to a cyclic collection
        that a run-heavy process may not reach for many runs. Everything
        post-run readers use — stats, caches, page tables, the profiler,
        ``metrics_registry()`` and ``profile_report()`` — stays.
        """
        self.engine._agenda.clear()
        for core in self.cores:
            core.port = None
        for controller in self.controllers:
            controller.release()
        self.scheduler._controllers = []
        self.context.inject_copy_traffic = None

    def profile_report(self) -> Dict[str, object]:
        """Wall-clock profile of the completed run (``profile=True`` only)."""
        if self.sim_profiler is None:
            raise SimulationError("system was built without profile=True")
        if self._wall_seconds is None:
            raise SimulationError("profile_report() requires a finished run")
        wall = self._wall_seconds
        components = [
            {
                "component": name,
                "seconds": seconds,
                "events": events,
                "share": seconds / wall if wall else 0.0,
            }
            for name, seconds, events in self.sim_profiler.breakdown()
        ]
        return {
            "wall_seconds": wall,
            "cycles": self.engine.now,
            "cycles_per_second": self.engine.now / wall if wall else 0.0,
            "events": self.engine.stat_events,
            "components": components,
        }

    def _validate_command_streams(self) -> None:
        org = self.config.organization
        for channel in self.channels:
            validator = ProtocolValidator(
                self.config.timings,
                org.ranks_per_channel,
                org.banks_per_rank,
                clock_ratio=self.config.clock_ratio,
            )
            validator.observe_all(channel.command_log or [])

    def metrics_registry(self):
        """Collect every component's counters into a fresh metrics registry.

        Pull model: this walks the native ``stat_*`` counters on demand, so
        it costs nothing during simulation and may be called at any point
        (normally after :meth:`run`). Deterministic for a given state.
        """
        registry = MetricsRegistry()
        cycles = registry.gauge(
            "repro_sim_cycles", "Simulated CPU cycles elapsed"
        )
        cycles.set(self.engine.now)
        registry.counter(
            "repro_sim_engine_events_total", "Discrete events executed"
        ).inc(self.engine.stat_events)
        registry.gauge(
            "repro_kernel_agenda_peak",
            "High-water mark of the engine's event agenda",
        ).set(self.engine.stat_agenda_peak)
        retired = registry.counter(
            "repro_cpu_retired_insts_total", "Instructions retired per core"
        )
        for thread_id, core in enumerate(self.cores):
            retired.inc(core.stats.retired_insts, thread=str(thread_id))
        for channel in self.channels:
            channel.collect_metrics(registry)
        for controller in self.controllers:
            controller.collect_metrics(registry)
        self.scheduler.collect_metrics(registry)
        self.allocator.collect_metrics(registry)
        if self.migration is not None:
            self.migration.collect_metrics(registry)
        repartitions = getattr(self.policy, "stat_repartitions", None)
        if repartitions is not None:
            registry.counter(
                "repro_policy_repartitions_total",
                "Policy epochs that changed at least one allocation",
            ).inc(repartitions, policy=self.policy.name)
        return registry

    def _collect(self) -> SystemResult:
        result = SystemResult(horizon=self.horizon)
        for core in self.cores:
            core.finalize()
        for thread_id, core in enumerate(self.cores):
            ipc = core.ipc()
            reads = writes = hits = latency = 0
            for controller in self.controllers:
                stats = controller.stats
                reads += stats.per_thread_reads.get(thread_id, 0)
                writes += stats.per_thread_writes.get(thread_id, 0)
                hits += stats.per_thread_row_hits.get(thread_id, 0)
                latency += stats.per_thread_latency_sum.get(thread_id, 0)
            served = reads + writes
            result.threads[thread_id] = ThreadResult(
                thread_id=thread_id,
                app=self.traces[thread_id].name,
                ipc=ipc,
                retired_insts=core.stats.retired_insts,
                reads=reads,
                writes=writes,
                llc_miss_rate=self.caches[thread_id].miss_rate,
                row_hit_rate=hits / served if served else 0.0,
                mean_read_latency=latency / reads if reads else 0.0,
            )
        result.bus_utilization = {
            controller.channel.channel_id: (
                controller.stats.data_bus_busy / self.horizon
            )
            for controller in self.controllers
        }
        result.total_commands = sum(c.stat_commands for c in self.channels)
        result.total_refreshes = sum(
            rank.stat_refreshes for channel in self.channels for rank in channel.ranks
        )
        if self.migration is not None:
            result.pages_migrated = self.migration.stat_pages_moved
        result.engine_events = self.engine.stat_events
        return result
