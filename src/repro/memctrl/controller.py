"""Per-channel memory controller.

The controller owns the read and write queues for one channel, turns the
scheduler's request ordering into legal command sequences (precharge /
activate / CAS), drains writes between watermarks, and keeps refresh on
schedule. It is event-driven: a decision event issues at most one command,
then reschedules itself either one command-bus slot later (more work ready)
or at the earliest cycle anything can become issuable (event skipping) —
never cycle by cycle.

A decision does not rescan the queues (see DESIGN.md "Simulation kernel"):
requests live in per-bank indexed queues with a memoized best request per
bank, invalidated by command issue and by the scheduler's
:meth:`Scheduler.ordering_token`, plus bank-independent per-rank timing
floors computed once per decision. The transparent full rescan it must stay
bit-identical to is a test oracle (``tests/reference_kernel.py``);
``tests/test_kernel_equivalence.py`` holds both to the golden fixture in
``tests/data/kernel_golden.json`` over the full approach x page-policy
grid, ``Engine.stat_events`` included.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, List, Optional, Tuple

from ..config import ControllerConfig
from ..dram.channel import Channel
from ..dram.commands import Command, CommandType
from ..errors import SimulationError
from .request import Request
from .schedulers.base import Scheduler

_FAR_FUTURE = 1 << 62

#: Unique sentinel: "no ordering token cached yet" (distinct from any
#: token a scheduler can return, including None).
_TOKEN_UNSET = object()


class ControllerStats:
    """Aggregate and per-thread service statistics for one channel."""

    def __init__(self) -> None:
        self.reads_served = 0
        self.writes_served = 0
        self.row_hits = 0
        self.row_misses = 0
        self.read_latency_sum = 0
        self.per_thread_reads: Dict[int, int] = {}
        self.per_thread_writes: Dict[int, int] = {}
        self.per_thread_row_hits: Dict[int, int] = {}
        self.per_thread_latency_sum: Dict[int, int] = {}
        self.data_bus_busy = 0
        #: OS page-copy CAS commands, kept out of the performance counters
        #: above but still charged to the data bus.
        self.migration_reads = 0
        self.migration_writes = 0

    def record_cas(
        self,
        request: Request,
        now: int,
        row_hit: bool,
        burst: int,
        data_end: int,
    ) -> None:
        """Account one served CAS.

        ``data_end`` is the cycle the last data beat crosses the bus — read
        latency is measured to there, not to CAS issue, so it includes
        CL + tBURST. Migration traffic occupies the bus (and is counted as
        such) but is excluded from every performance counter, per the
        :class:`~repro.memctrl.request.Request` contract.
        """
        self.data_bus_busy += burst
        if request.is_migration:
            if request.is_write:
                self.migration_writes += 1
            else:
                self.migration_reads += 1
            return
        thread = request.thread_id
        if request.is_write:
            self.writes_served += 1
            self.per_thread_writes[thread] = self.per_thread_writes.get(thread, 0) + 1
        else:
            self.reads_served += 1
            self.per_thread_reads[thread] = self.per_thread_reads.get(thread, 0) + 1
            latency = data_end - request.arrival
            self.read_latency_sum += latency
            self.per_thread_latency_sum[thread] = (
                self.per_thread_latency_sum.get(thread, 0) + latency
            )
        if row_hit:
            self.row_hits += 1
            self.per_thread_row_hits[thread] = (
                self.per_thread_row_hits.get(thread, 0) + 1
            )
        else:
            self.row_misses += 1

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class ChannelController:
    """Scheduler-driven command issue for one channel."""

    def __init__(
        self,
        channel: Channel,
        config: ControllerConfig,
        scheduler: Scheduler,
        engine,
    ) -> None:
        self.channel = channel
        self.config = config
        self.scheduler = scheduler
        self.engine = engine
        self._write_drain = False
        self._next_decision: Optional[int] = None
        self.stats = ControllerStats()
        self._listeners: List[object] = []
        # Per-bank indexed queues: requests live in their target bank's
        # bucket (global bank index gb = rank * banks_per_rank + bank).
        # The scan visits banks, not requests, and CAS removal touches a
        # short bucket instead of an O(queue) flat-list remove.
        self._banks_per_rank = len(channel.ranks[0].banks)
        num_banks = len(channel.ranks) * self._banks_per_rank
        self._banks_flat = [b for r in channel.ranks for b in r.banks]
        self._rank_of_gb = [
            gb // self._banks_per_rank for gb in range(num_banks)
        ]
        self._read_by_bank: List[List[Request]] = [[] for _ in range(num_banks)]
        self._write_by_bank: List[List[Request]] = [[] for _ in range(num_banks)]
        self._read_count = 0
        self._write_count = 0
        # Occupied-bucket index: gb -> None for every non-empty bucket, so
        # the scan visits only banks that actually hold requests. A dict
        # (not a set) for its guaranteed O(1) ordered iteration; the scan
        # result is iteration-order independent (keys embed req_id).
        self._occ_read: Dict[int, None] = {}
        self._occ_write: Dict[int, None] = {}
        # Fast-kernel memo: per bank per direction, the winning
        # (key, request, kind, bank_ready) — kind is 0=CAS / 1=ACT / 2=PRE
        # and bank_ready the bank-local horizon for that kind, both
        # snapshotted at recompute time. An entry stays valid until its
        # bank is dirtied: enqueue, CAS removal, any command that moves the
        # bank's horizons or open row (ACT/PRE/CAS on the bank, rank-wide
        # REFRESH), or an ordering-token change (read side only).
        self._best_read: List[Optional[Tuple]] = [None] * num_banks
        self._best_write: List[Optional[Tuple]] = [None] * num_banks
        self._dirty_read = [True] * num_banks
        self._dirty_write = [True] * num_banks
        self._read_token: object = _TOKEN_UNSET
        self._kind_map_read = (
            CommandType.READ, CommandType.ACTIVATE, CommandType.PRECHARGE
        )
        self._kind_map_write = (
            CommandType.WRITE, CommandType.ACTIVATE, CommandType.PRECHARGE
        )
        # Bound once: _request_decision pushes this on the agenda directly.
        self._decision_cb = self._on_decision_event
        # min(next_refresh_due) over ranks, maintained on every REFRESH so
        # the per-decision "any refresh due?" check is one compare. With
        # refresh disabled every rank reports a far-future due cycle.
        self._min_refresh_due = min(r.next_refresh_due for r in channel.ranks)
        # Wake memo: a non-issuing scan knows, at scan time, exactly which
        # candidate will win at its own wake-up cycle (all readiness inputs
        # are controller-local). (generation, wake_cycle, is_write, entry);
        # valid only while the generation counter is unchanged.
        self._gen = 0
        self._wake_memo: Optional[Tuple] = None
        # Hot-loop constants.
        self._page_closed = config.page_policy == "closed"
        self._high_wm = config.write_high_watermark
        self._low_wm = config.write_low_watermark
        # Kernel introspection counters (flight recorder). Plain ints so
        # they pickle with the system and cost one attribute bump where
        # they fire; exported as repro_kernel_* metrics, which
        # tests/kernelgrid.py strips from the differential document (they
        # describe the memo machinery, which the golden fixture's
        # full-rescan oracle lacks).
        self.kc_decisions = 0
        self.kc_wake_hits = 0
        self.kc_wake_misses = 0
        self.kc_scans = 0
        self.kc_best_hits = 0
        self.kc_best_misses = 0
        self.kc_scanned_requests = 0
        self.kc_inval_enqueue = 0
        self.kc_inval_activate = 0
        self.kc_inval_precharge = 0
        self.kc_inval_cas = 0
        self.kc_inval_refresh = 0
        self.kc_inval_token = 0
        scheduler.attach_controller(self)
        if config.refresh_enabled:
            first_due = min(r.next_refresh_due for r in channel.ranks)
            self._request_decision(first_due)

    # ------------------------------------------------------------------
    # Observability (pull model: reads the stat counters, post-run).
    # ------------------------------------------------------------------
    def collect_metrics(self, registry) -> None:
        """Export this controller's service statistics into a registry."""
        channel = str(self.channel.channel_id)
        stats = self.stats
        served = registry.counter(
            "repro_ctrl_requests_served_total",
            "Demand CAS commands served, by operation",
        )
        served.inc(stats.reads_served, channel=channel, op="read")
        served.inc(stats.writes_served, channel=channel, op="write")
        rows = registry.counter(
            "repro_ctrl_row_outcomes_total",
            "Row-buffer outcome of each demand CAS",
        )
        rows.inc(stats.row_hits, channel=channel, outcome="hit")
        rows.inc(stats.row_misses, channel=channel, outcome="miss")
        migration = registry.counter(
            "repro_ctrl_migration_cas_total",
            "Page-copy CAS commands (excluded from demand counters)",
        )
        migration.inc(stats.migration_reads, channel=channel, op="read")
        migration.inc(stats.migration_writes, channel=channel, op="write")
        registry.counter(
            "repro_ctrl_data_bus_busy_cycles_total",
            "CPU cycles the data bus spent transferring bursts",
        ).inc(stats.data_bus_busy, channel=channel)
        depth = registry.gauge(
            "repro_ctrl_queue_depth", "Requests queued at collect time"
        )
        depth.set(self._read_count, channel=channel, queue="read")
        depth.set(self._write_count, channel=channel, queue="write")
        per_thread = registry.counter(
            "repro_ctrl_thread_requests_total",
            "Demand requests served per thread",
        )
        latency = registry.histogram(
            "repro_ctrl_thread_mean_read_latency_cycles",
            "Per-thread mean read latency (one observation per thread)",
        )
        threads = set(stats.per_thread_reads) | set(stats.per_thread_writes)
        for thread_id in sorted(threads):
            reads = stats.per_thread_reads.get(thread_id, 0)
            writes = stats.per_thread_writes.get(thread_id, 0)
            per_thread.inc(
                reads, channel=channel, thread=str(thread_id), op="read"
            )
            per_thread.inc(
                writes, channel=channel, thread=str(thread_id), op="write"
            )
            if reads:
                latency.observe(
                    stats.per_thread_latency_sum.get(thread_id, 0) / reads,
                    channel=channel,
                )
        self._collect_kernel_metrics(registry, channel)

    def _collect_kernel_metrics(self, registry, channel: str) -> None:
        """Export the fast-kernel introspection counters.

        The repro_kernel_* series describe the memo machinery, not the
        simulated machine — the golden fixture's full-rescan oracle has
        none — so ``grid_doc`` in ``tests/kernelgrid.py`` strips the prefix
        from the differential document.
        """
        registry.counter(
            "repro_kernel_decisions_total",
            "Fast-kernel decision invocations",
        ).inc(self.kc_decisions, channel=channel)
        wake = registry.counter(
            "repro_kernel_wake_memo_total",
            "Wake-memo outcomes: hit = issue without any scan",
        )
        wake.inc(self.kc_wake_hits, channel=channel, result="hit")
        wake.inc(self.kc_wake_misses, channel=channel, result="miss")
        registry.counter(
            "repro_kernel_scans_total",
            "Full occupied-bucket scans (wake memo did not short-circuit)",
        ).inc(self.kc_scans, channel=channel)
        best = registry.counter(
            "repro_kernel_best_memo_total",
            "Per-bank best-request memo outcomes during scans",
        )
        best.inc(self.kc_best_hits, channel=channel, result="hit")
        best.inc(self.kc_best_misses, channel=channel, result="miss")
        registry.counter(
            "repro_kernel_scanned_requests_total",
            "Requests visited while recomputing dirty bank buckets",
        ).inc(self.kc_scanned_requests, channel=channel)
        inval = registry.counter(
            "repro_kernel_invalidations_total",
            "Best-memo invalidation events by cause",
        )
        inval.inc(self.kc_inval_enqueue, channel=channel, cause="enqueue")
        inval.inc(self.kc_inval_activate, channel=channel, cause="activate")
        inval.inc(self.kc_inval_precharge, channel=channel, cause="precharge")
        inval.inc(self.kc_inval_cas, channel=channel, cause="cas")
        inval.inc(self.kc_inval_refresh, channel=channel, cause="refresh")
        inval.inc(self.kc_inval_token, channel=channel, cause="token")

    # ------------------------------------------------------------------
    # External surface.
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Drop the run-time wiring once the run is over.

        The listeners, the self-bound decision callback, the memos (which
        may still hold served requests) and the completions of requests
        left queued at the horizon all lead back into the System; stats,
        queues and kernel counters stay readable.
        """
        self._listeners = []
        self._decision_cb = None
        self._best_read = [None] * len(self._best_read)
        self._best_write = [None] * len(self._best_write)
        self._wake_memo = None
        for bucket in self._read_by_bank + self._write_by_bank:
            for request in bucket:
                request.on_complete = None

    def add_listener(self, listener: object) -> None:
        """Register a profiling listener (on_arrival / on_cas hooks)."""
        self._listeners.append(listener)

    def enqueue(self, request: Request, now: int) -> None:
        """Accept a request into the appropriate queue at cycle ``now``."""
        if request.loc.channel != self.channel.channel_id:
            raise SimulationError(
                f"request for channel {request.loc.channel} sent to "
                f"controller {self.channel.channel_id}"
            )
        gb = request.rank * self._banks_per_rank + request.bank
        self._gen += 1
        self.kc_inval_enqueue += 1
        if request.is_write:
            self._write_by_bank[gb].append(request)
            self._write_count += 1
            self._dirty_write[gb] = True
            self._occ_write[gb] = None
        else:
            self._read_by_bank[gb].append(request)
            self._read_count += 1
            self._dirty_read[gb] = True
            self._occ_read[gb] = None
        self.scheduler.on_arrival(request, now)
        for listener in self._listeners:
            listener.on_arrival(request, now)
        self._request_decision(now)

    @property
    def read_queue(self) -> List[Request]:
        """All queued reads (materialized; grouped by bank, FIFO within)."""
        return [r for bucket in self._read_by_bank for r in bucket]

    @property
    def write_queue(self) -> List[Request]:
        """All queued writes (materialized; grouped by bank, FIFO within)."""
        return [r for bucket in self._write_by_bank for r in bucket]

    @property
    def pending_requests(self) -> int:
        """Requests currently queued (both directions)."""
        return self._read_count + self._write_count

    # ------------------------------------------------------------------
    # Decision scheduling (stale-event pattern on the shared engine).
    # ------------------------------------------------------------------
    def _request_decision(self, cycle: int) -> None:
        next_decision = self._next_decision
        if next_decision is not None and next_decision <= cycle:
            return
        self._next_decision = cycle
        # Direct agenda push: engine.schedule minus the call and its
        # past-guard. Every caller passes cycle >= now by construction
        # (enqueue and post-issue wake-ups pass now or later; refresh
        # wake-ups are only requested when the due cycle is ahead), and
        # the differential grid pins the resulting event order.
        engine = self.engine
        agenda = engine._agenda
        heappush(agenda, (cycle, next(engine._sequence), self._decision_cb))
        if len(agenda) > engine.stat_agenda_peak:
            engine.stat_agenda_peak = len(agenda)

    # ------------------------------------------------------------------
    # The decision: issue at most one command at `now`.
    # ------------------------------------------------------------------
    def _on_decision_event(self, now: int) -> None:
        if self._next_decision != now:
            return  # superseded by an earlier decision request
        self._next_decision = None
        # Write-drain hysteresis between the two watermarks.
        writes = self._write_count
        if self._write_drain:
            if writes <= self._low_wm or not writes:
                self._write_drain = False
        elif writes >= self._high_wm:
            self._write_drain = True
        issued, next_event = self._try_issue(now)
        if issued:
            more_work = (
                self._read_count
                or self._write_count
                or now >= self._min_refresh_due
            )
            if not more_work and self._page_closed:
                # Stay awake to close rows left open by the last requests.
                more_work = any(
                    rank.open_row_count() for rank in self.channel.ranks
                )
            if more_work:
                self._request_decision(now + self.channel.clock_ratio)
            else:
                self._schedule_refresh_wake()
        elif next_event < _FAR_FUTURE:
            self._request_decision(next_event)
        else:
            self._schedule_refresh_wake()

    def _schedule_refresh_wake(self) -> None:
        if not self.config.refresh_enabled:
            return
        self._request_decision(self._min_refresh_due)

    # ------------------------------------------------------------------
    # The kernel: memoized per-bank bests + per-rank timing floors.
    # ------------------------------------------------------------------
    def _try_issue(self, now: int) -> Tuple[bool, int]:
        """Issue the best legal command at ``now``; returns (issued, next_t).

        Bit-identical to the full rescan in ``tests/reference_kernel.py``.
        """
        self.kc_decisions += 1
        memo = self._wake_memo
        if memo is not None:
            self._wake_memo = None
            # A non-issuing scan precomputed its wake-up's winner; it holds
            # if nothing touched this controller since (generation), the
            # wake fires at the predicted cycle, no refresh came due, and
            # the scheduler ordering is unchanged (write keys are static;
            # read keys are pinned by the token).
            if (
                memo[0] == self._gen
                and memo[1] == now
                and now < self._min_refresh_due
                and (
                    memo[2]
                    or self.scheduler.ordering_token(now) == memo[3]
                )
            ):
                self.kc_wake_hits += 1
                entry = memo[4]
                is_write = memo[2]
                kind_map = (
                    self._kind_map_write if is_write else self._kind_map_read
                )
                self._issue_command(
                    entry[1], kind_map[entry[2]], now, is_write
                )
                return True, _FAR_FUTURE
            self.kc_wake_misses += 1
        next_event = _FAR_FUTURE
        channel = self.channel
        ranks = channel.ranks
        blocked_ranks: Tuple[int, ...] = ()
        if now >= self._min_refresh_due:
            for rank in ranks:
                if now >= rank.next_refresh_due:
                    issued, ready = self._progress_refresh(rank, now)
                    if issued:
                        return True, _FAR_FUTURE
                    if ready < next_event:
                        next_event = ready
                    blocked_ranks += (rank.rank_id,)
        if self._write_drain:
            is_write = True
        elif self._read_count:
            is_write = False
        elif self._write_count:
            is_write = True
        else:
            if self._page_closed:
                issued, ready = self._close_stale_rows(now, blocked_ranks)
                if issued:
                    return True, _FAR_FUTURE
                if ready < next_event:
                    next_event = ready
            return False, next_event
        scheduler = self.scheduler
        if is_write:
            occupied = self._occ_write
            buckets = self._write_by_bank
            best_cache = self._best_write
            dirty = self._dirty_write
            refresh_token = False
        else:
            occupied = self._occ_read
            buckets = self._read_by_bank
            best_cache = self._best_read
            dirty = self._dirty_read
            token = scheduler.ordering_token(now)
            refresh_token = token is None or token != self._read_token
            if refresh_token:
                # Only occupied buckets matter: empty ones are re-dirtied
                # by the enqueue that repopulates them.
                self.kc_inval_token += 1
                for gb in occupied:
                    dirty[gb] = True
        self.kc_scans += 1
        banks_flat = self._banks_flat
        rank_of = self._rank_of_gb
        cas_floors: List[Optional[int]] = [None] * len(ranks)
        cmd_free = channel._next_cmd_free
        prefixes: Optional[Dict[int, Optional[Tuple]]] = None
        best_choice = None
        wake_best = None
        check_blocked = bool(blocked_ranks)
        # Scan-local counter accumulators, flushed once after the loop.
        kc_best_hits = 0
        kc_best_misses = 0
        kc_scanned = 0
        kc_floor_computed = 0
        kc_floor_skipped = 0
        for gb in occupied:
            rank_id = rank_of[gb]
            if check_blocked and rank_id in blocked_ranks:
                continue
            if dirty[gb]:
                kc_best_misses += 1
                kc_scanned += len(buckets[gb])
                bank = banks_flat[gb]
                open_row = bank.open_row
                best_key = None
                best_req = None
                if is_write:
                    for request in buckets[gb]:
                        key = (
                            0 if open_row == request.row else 1,
                            request.arrival,
                            request.req_id,
                        )
                        if best_key is None or key < best_key:
                            best_key = key
                            best_req = request
                else:
                    if prefixes is None:
                        prefixes = {}
                    for request in buckets[gb]:
                        row_hit = open_row == request.row
                        thread_id = request.thread_id
                        if thread_id in prefixes:
                            prefix = prefixes[thread_id]
                        else:
                            prefix = scheduler.thread_priority(thread_id, now)
                            prefixes[thread_id] = prefix
                        if prefix is None:
                            key = scheduler.key(request, row_hit, now)
                        else:
                            key = prefix + (
                                0 if row_hit else 1,
                                request.arrival,
                                request.req_id,
                            )
                        if best_key is None or key < best_key:
                            best_key = key
                            best_req = request
                # Snapshot the next command kind and the bank-local part
                # of its readiness; valid until this bank is dirtied.
                if open_row == best_req.row:
                    kind = 0
                    bready = (
                        bank.earliest_write if is_write else bank.earliest_read
                    )
                elif open_row is None:
                    kind = 1
                    bready = bank.earliest_activate
                else:
                    kind = 2
                    bready = bank.earliest_precharge
                entry = (best_key, best_req, kind, bready)
                best_cache[gb] = entry
                dirty[gb] = False
            else:
                kc_best_hits += 1
                entry = best_cache[gb]
                kind = entry[2]
                bready = entry[3]
            # Readiness: cached bank horizon against the live shared
            # floors (command bus, rank ACT window, CAS bus/turnaround).
            if kind == 0:
                ready = cas_floors[rank_id]
                if ready is None:
                    kc_floor_computed += 1
                    ready = channel.cas_floor(rank_id, is_write)
                    cas_floors[rank_id] = ready
                else:
                    kc_floor_skipped += 1
                if bready > ready:
                    ready = bready
            elif kind == 1:
                ready = ranks[rank_id]._act_ready
                if bready > ready:
                    ready = bready
                if cmd_free > ready:
                    ready = cmd_free
            else:
                ready = bready if bready > cmd_free else cmd_free
            if ready <= now:
                if best_choice is None or entry[0] < best_choice[0]:
                    best_choice = entry
            elif ready < next_event:
                next_event = ready
                wake_best = entry
            elif (
                ready == next_event
                and wake_best is not None
                and entry[0] < wake_best[0]
            ):
                wake_best = entry
        self.kc_best_hits += kc_best_hits
        self.kc_best_misses += kc_best_misses
        self.kc_scanned_requests += kc_scanned
        channel.kc_cas_floor_computed += kc_floor_computed
        channel.kc_cas_floor_skipped += kc_floor_skipped
        if not is_write and refresh_token:
            # Re-read after the scan: key() may have mutated lazy scheduler
            # state (e.g. PAR-BS batch formation), and the cached bests
            # reflect the post-mutation ordering.
            self._read_token = scheduler.ordering_token(now)
        if best_choice is None:
            if self._page_closed:
                issued, ready = self._close_stale_rows(now, blocked_ranks)
                if issued:
                    return True, _FAR_FUTURE
                if ready < next_event:
                    next_event = ready
            elif (
                wake_best is not None
                and not check_blocked
                and (is_write or self._read_token is not None)
            ):
                # All of next_event's inputs are controller-local, so the
                # winner at the wake-up cycle is already decided — unless
                # an enqueue, command, refresh, or token change intervenes
                # (each checked on the wake side).
                self._wake_memo = (
                    self._gen,
                    next_event,
                    is_write,
                    None if is_write else self._read_token,
                    wake_best,
                )
            return False, next_event
        kind_map = self._kind_map_write if is_write else self._kind_map_read
        self._issue_command(
            best_choice[1], kind_map[best_choice[2]], now, is_write
        )
        return True, _FAR_FUTURE

    def _close_stale_rows(self, now: int, blocked_ranks) -> Tuple[bool, int]:
        """Closed-page policy: precharge open banks no queued request wants.

        Real work always takes priority — this only runs when nothing else
        was issuable this cycle.
        """
        ready = _FAR_FUTURE
        reads = self._read_by_bank
        writes = self._write_by_bank
        nb = self._banks_per_rank
        for rank in self.channel.ranks:
            rank_id = rank.rank_id
            if rank_id in blocked_ranks:
                continue
            base = rank_id * nb
            for bank in rank.banks:
                open_row = bank.open_row
                if open_row is None:
                    continue
                gb = base + bank.bank_id
                if any(r.row == open_row for r in reads[gb]) or any(
                    r.row == open_row for r in writes[gb]
                ):
                    continue  # still useful
                t = self.channel.earliest_precharge(rank_id, bank.bank_id)
                if t <= now:
                    self.channel.issue(
                        Command(
                            cycle=now,
                            kind=CommandType.PRECHARGE,
                            channel=self.channel.channel_id,
                            rank=rank_id,
                            bank=bank.bank_id,
                        )
                    )
                    self._gen += 1
                    self._dirty_read[gb] = True
                    self._dirty_write[gb] = True
                    self.kc_inval_precharge += 1
                    return True, _FAR_FUTURE
                if t < ready:
                    ready = t
        return False, ready

    def _issue_command(
        self, request: Request, kind: CommandType, now: int, is_write: bool
    ) -> None:
        command = Command(
            cycle=now,
            kind=kind,
            channel=self.channel.channel_id,
            rank=request.rank,
            bank=request.bank,
            row=request.row if kind is CommandType.ACTIVATE else -1,
            thread_id=request.thread_id,
        )
        result = self.channel.issue(command)
        self._gen += 1
        gb = request.rank * self._banks_per_rank + request.bank
        if kind is CommandType.ACTIVATE:
            request.needed_activate = True
            # The open row changed: cached row-hit bits are stale in both
            # directions.
            self._dirty_read[gb] = True
            self._dirty_write[gb] = True
            self.kc_inval_activate += 1
            return
        if kind is CommandType.PRECHARGE:
            self._dirty_read[gb] = True
            self._dirty_write[gb] = True
            self.kc_inval_precharge += 1
            return
        # CAS: the request is served. The CAS also moves the bank's
        # precharge horizon (tRTP / tWR), so cached entries go stale in
        # *both* directions, not just the bucket the request left.
        self._dirty_read[gb] = True
        self._dirty_write[gb] = True
        self.kc_inval_cas += 1
        if is_write:
            bucket = self._write_by_bank[gb]
            bucket.remove(request)
            self._write_count -= 1
            if not bucket:
                del self._occ_write[gb]
        else:
            bucket = self._read_by_bank[gb]
            bucket.remove(request)
            self._read_count -= 1
            if not bucket:
                del self._occ_read[gb]
        request.served_at = now
        row_hit = not request.needed_activate
        self.stats.record_cas(
            request, now, row_hit, self.channel.timings.tBURST, result
        )
        self.scheduler.on_served(request, now)
        for listener in self._listeners:
            listener.on_cas(request, now, row_hit, result)
        if not is_write and request.on_complete is not None:
            self.engine.schedule(result, request.on_complete)

    # ------------------------------------------------------------------
    # Refresh sequencing: precharge open banks, then REF.
    # ------------------------------------------------------------------
    def _progress_refresh(self, rank, now: int) -> Tuple[bool, int]:
        open_banks = self.channel.open_banks(rank.rank_id)
        if open_banks:
            ready = _FAR_FUTURE
            for bank_id, _row in open_banks:
                t = self.channel.earliest_precharge(rank.rank_id, bank_id)
                if t <= now:
                    self.channel.issue(
                        Command(
                            cycle=now,
                            kind=CommandType.PRECHARGE,
                            channel=self.channel.channel_id,
                            rank=rank.rank_id,
                            bank=bank_id,
                        )
                    )
                    gb = rank.rank_id * self._banks_per_rank + bank_id
                    self._gen += 1
                    self._dirty_read[gb] = True
                    self._dirty_write[gb] = True
                    self.kc_inval_precharge += 1
                    return True, _FAR_FUTURE
                ready = min(ready, t)
            return False, ready
        ready = self.channel.earliest_refresh(rank.rank_id)
        if ready <= now:
            self.channel.issue(
                Command(
                    cycle=now,
                    kind=CommandType.REFRESH,
                    channel=self.channel.channel_id,
                    rank=rank.rank_id,
                    bank=-1,
                )
            )
            # The rank-wide REFRESH pushed every bank horizon
            # (block_until), so the cached bank_ready snapshots for this
            # rank are stale in both directions.
            self._gen += 1
            base = rank.rank_id * self._banks_per_rank
            dirty_read = self._dirty_read
            dirty_write = self._dirty_write
            for gb in range(base, base + self._banks_per_rank):
                dirty_read[gb] = True
                dirty_write[gb] = True
            self._min_refresh_due = min(
                r.next_refresh_due for r in self.channel.ranks
            )
            self.kc_inval_refresh += 1
            return True, _FAR_FUTURE
        return False, ready
