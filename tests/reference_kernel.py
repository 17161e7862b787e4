"""Test oracle: the full-rescan decision loop the production kernel replaced.

:class:`ReferenceController` is a :class:`ChannelController` whose
``_try_issue`` rescans every queued request each decision through
:meth:`Scheduler.key` / :meth:`Scheduler.thread_priority` and the channel's
``earliest_*`` queries — no per-bank best memo, no wake memo, no per-rank
timing floors. It is deliberately transparent and slow; its value is that
the decision itself shares no cleverness with the memoized production loop
in ``repro/memctrl/controller.py``. Everything around the decision (queues,
decision-event scheduling, command issue, refresh sequencing, stale-row
precharge) is inherited, so the two must agree bit for bit, engine event
stream included; ``tests/data/kernel_golden.json`` was generated from this
loop.

There is no production hook for selecting it. A test swaps it in where
:class:`~repro.sim.system.System` looks the controller class up, with
:func:`swap_in` — every System *built* while the patch is active gets the
oracle. An oracle run leaves the decision-loop counters
(``repro_kernel_decisions_total``, scans, memo hits/misses, cas-floor
reuse) at zero — which is how tests prove the swap took effect — while the
invalidation counters, bumped on the inherited enqueue/issue paths, still
count.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.dram.commands import CommandType
from repro.memctrl.controller import _FAR_FUTURE, ChannelController
from repro.memctrl.request import Request


class ReferenceController(ChannelController):
    """Full rescan per decision."""

    def _try_issue(self, now: int) -> Tuple[bool, int]:
        """Issue the best legal command at ``now``; returns (issued, next_t)."""
        next_event = _FAR_FUTURE
        ranks = self.channel.ranks
        # 1. Refresh has absolute priority on its rank.
        refresh_ranks = [r for r in ranks if now >= r.next_refresh_due]
        for rank in refresh_ranks:
            issued, ready = self._progress_refresh(rank, now)
            if issued:
                return True, _FAR_FUTURE
            next_event = min(next_event, ready)
        blocked_ranks = {r.rank_id for r in refresh_ranks}
        # 2. Pick the active queue.
        if self._write_drain:
            buckets, is_write = self._write_by_bank, True
        elif self._read_count:
            buckets, is_write = self._read_by_bank, False
        elif self._write_count:
            buckets, is_write = self._write_by_bank, True
        else:
            if self._page_closed:
                issued, ready = self._close_stale_rows(now, blocked_ranks)
                if issued:
                    return True, _FAR_FUTURE
                next_event = min(next_event, ready)
            return False, next_event
        # 3. Best request per bank under the scheduler's ordering, then the
        # best issuable candidate among the per-bank bests. Thread-level
        # schedulers expose a per-thread priority prefix so key() need not
        # run per request. Keys embed req_id, so the per-bank minimum (and
        # the global choice) is independent of scan order.
        scheduler = self.scheduler
        banks_flat = self._banks_flat
        rank_of = self._rank_of_gb
        prefixes: Dict[int, Optional[Tuple]] = {}
        best_choice = None
        for gb, bucket in enumerate(buckets):
            if not bucket:
                continue
            rank_id = rank_of[gb]
            if rank_id in blocked_ranks:
                continue
            open_row = banks_flat[gb].open_row
            best = None
            for request in bucket:
                row_hit = open_row == request.row
                if is_write:
                    # Writes drain row-hit-first regardless of policy.
                    key = (0 if row_hit else 1, request.arrival, request.req_id)
                else:
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
                if best is None or key < best[0]:
                    best = (key, request, row_hit)
            key, request, row_hit = best
            command, ready = self._next_command_for(request, row_hit, now)
            if ready <= now:
                if best_choice is None or key < best_choice[0]:
                    best_choice = (key, request, command, row_hit)
            elif ready < next_event:
                next_event = ready
        if best_choice is None:
            if self._page_closed:
                issued, ready = self._close_stale_rows(now, blocked_ranks)
                if issued:
                    return True, _FAR_FUTURE
                next_event = min(next_event, ready)
            return False, next_event
        _key, request, command, _row_hit = best_choice
        self._issue_command(request, command, now, is_write)
        return True, _FAR_FUTURE

    def _next_command_for(
        self, request: Request, row_hit: bool, now: int
    ) -> Tuple[CommandType, int]:
        rank, bank_id = request.rank, request.bank
        bank = self.channel.ranks[rank].banks[bank_id]
        if row_hit:
            ready = self.channel.earliest_cas(rank, bank_id, request.is_write)
            kind = CommandType.WRITE if request.is_write else CommandType.READ
            return kind, ready
        if bank.open_row is None:
            return CommandType.ACTIVATE, self.channel.earliest_activate(
                rank, bank_id
            )
        return CommandType.PRECHARGE, self.channel.earliest_precharge(
            rank, bank_id
        )


def swap_in(monkeypatch) -> None:
    """Make every System built under ``monkeypatch`` use the oracle."""
    monkeypatch.setattr(
        "repro.sim.system.ChannelController", ReferenceController
    )
