"""Channel-level DRAM state: command bus, data bus, and turnaround rules.

The channel is the interface the memory controller drives. It aggregates the
three constraint levels — bank horizons, rank activation windows, and the
shared command/data buses — into ``earliest_*`` queries the controller uses
both to pick commands and to event-skip to the next interesting cycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ProtocolError
from .bank import Bank
from .commands import Command, CommandType
from .rank import Rank
from .timing import DRAMTimings

# A long-past timestamp used to initialize "last event" trackers.
_NEVER = -(10**9)


class Channel:
    """One memory channel: ranks plus the shared command and data buses."""

    def __init__(
        self,
        channel_id: int,
        num_ranks: int,
        num_banks: int,
        timings: DRAMTimings,
        clock_ratio: int = 1,
        refresh_enabled: bool = True,
    ) -> None:
        self.channel_id = channel_id
        self.timings = timings
        self.clock_ratio = clock_ratio
        self.ranks: List[Rank] = [
            Rank(channel_id, r, num_banks, timings, refresh_enabled)
            for r in range(num_ranks)
        ]
        # Command bus: one command per DRAM bus cycle.
        self._next_cmd_free = 0
        # Data bus bookkeeping for CAS-to-CAS constraints. Rank-indexed
        # state lives in flat lists (struct-of-arrays): ranks are dense
        # small integers and these fields sit on the hottest query path.
        self._last_cas_issue_by_rank: List[Optional[int]] = [None] * num_ranks
        self._last_cas_rank: Optional[int] = None
        self._last_data_end = _NEVER
        self._last_read_issue = _NEVER
        self._last_write_data_end_by_rank: List[Optional[int]] = (
            [None] * num_ranks
        )
        self.command_log: Optional[List[Command]] = None
        self.stat_commands = 0
        # Flight-recorder counters, bumped by the controller's fast
        # kernel: per-decision cas_floor computations vs per-rank cache
        # reuses.
        self.kc_cas_floor_computed = 0
        self.kc_cas_floor_skipped = 0

    # ------------------------------------------------------------------
    # Topology helpers.
    # ------------------------------------------------------------------
    def bank(self, rank: int, bank: int) -> Bank:
        """The :class:`Bank` object at (rank, bank)."""
        return self.ranks[rank].banks[bank]

    def enable_logging(self) -> None:
        """Record every issued command (used by the protocol validator)."""
        self.command_log = []

    # ------------------------------------------------------------------
    # Earliest-issue queries. Each returns an absolute CPU cycle; the
    # controller may issue the command at any cycle >= that value (subject
    # to the one-command-per-bus-cycle rule folded in here).
    # ------------------------------------------------------------------
    def command_bus_free_at(self) -> int:
        """Earliest cycle the command bus has a free slot."""
        return self._next_cmd_free

    def earliest_activate(self, rank: int, bank: int) -> int:
        """Earliest legal ACTIVATE to (rank, bank), all constraints."""
        r = self.ranks[rank]
        return max(
            self._next_cmd_free,
            r.banks[bank].activate_ready_at(),
            r.activate_ready_at(),
        )

    def earliest_precharge(self, rank: int, bank: int) -> int:
        """Earliest legal PRECHARGE to (rank, bank)."""
        return max(
            self._next_cmd_free,
            self.ranks[rank].banks[bank].precharge_ready_at(),
        )

    def cas_floor(self, rank: int, is_write: bool) -> int:
        """Bank-independent part of :meth:`earliest_cas`.

        Folds in the command bus, same-rank tCCD and tWTR, read-to-write
        turnaround, cross-rank tRTRS, and raw data-bus occupancy — every
        constraint shared by all banks of ``rank``. The controller's fast
        kernel computes this once per (rank, direction) per decision and
        combines it with each candidate bank's own horizon.
        """
        t = self.timings
        issue = self._next_cmd_free
        # Same-rank CAS-to-CAS spacing.
        last_same = self._last_cas_issue_by_rank[rank]
        if last_same is not None:
            ccd = last_same + t.tCCD
            if ccd > issue:
                issue = ccd
        # Data-bus occupancy: next burst starts after the previous ends,
        # with a tRTRS bubble when switching driving rank.
        if self._last_data_end != _NEVER:
            gap = t.tRTRS if self._last_cas_rank not in (None, rank) else 0
            data_lead = t.CWL if is_write else t.CL
            bus = self._last_data_end + gap - data_lead
            if bus > issue:
                issue = bus
        if is_write:
            # Read-to-write turnaround on the shared bus.
            if self._last_read_issue != _NEVER:
                rtw = self._last_read_issue + t.tRTW
                if rtw > issue:
                    issue = rtw
        else:
            # Write-to-read: tWTR after the last write data beat, same rank.
            last_wr = self._last_write_data_end_by_rank[rank]
            if last_wr is not None:
                wtr = last_wr + t.tWTR
                if wtr > issue:
                    issue = wtr
        return issue

    def earliest_cas(self, rank: int, bank: int, is_write: bool) -> int:
        """Earliest legal READ/WRITE to the open row of (rank, bank).

        Folds in bank tRCD, same-rank tCCD and tWTR, read-to-write
        turnaround, cross-rank tRTRS, and raw data-bus occupancy.
        """
        floor = self.cas_floor(rank, is_write)
        ready = self.ranks[rank].banks[bank].cas_ready_at(is_write)
        return ready if ready > floor else floor

    def earliest_refresh(self, rank: int) -> int:
        """Earliest legal REFRESH (requires all banks idle; bank horizons)."""
        r = self.ranks[rank]
        ready = self._next_cmd_free
        for bank in r.banks:
            # After a precharge the bank must have completed tRP before the
            # refresh can begin; earliest_activate already encodes that.
            ready = max(ready, bank.activate_ready_at())
        return ready

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def issue(self, command: Command) -> int:
        """Apply ``command`` to the device state.

        Returns the last-data-beat cycle for CAS commands, the rank-free
        cycle for REFRESH, and 0 otherwise. Raises :class:`ProtocolError`
        for any illegal command — the device model is intentionally strict
        so controller bugs cannot silently corrupt timing.
        """
        now = command.cycle
        if command.channel != self.channel_id:
            raise ProtocolError(
                f"command for channel {command.channel} issued to "
                f"channel {self.channel_id}"
            )
        if now < self._next_cmd_free:
            raise ProtocolError(
                f"command bus busy until {self._next_cmd_free}, got {command}"
            )
        result = 0
        kind = command.kind
        # CAS first: half of all issued commands are READ/WRITE.
        if kind is CommandType.READ or kind is CommandType.WRITE:
            result = self._issue_cas(command)
        elif kind is CommandType.ACTIVATE:
            self._issue_activate(command)
        elif kind is CommandType.PRECHARGE:
            self.ranks[command.rank].banks[command.bank].precharge(now)
        elif kind is CommandType.REFRESH:
            result = self.ranks[command.rank].refresh(now)
        else:  # pragma: no cover - exhaustive over CommandType
            raise ProtocolError(f"unknown command kind {command.kind}")
        self._next_cmd_free = now + self.clock_ratio
        self.stat_commands += 1
        if self.command_log is not None:
            self.command_log.append(command)
        return result

    def _issue_activate(self, command: Command) -> None:
        rank = self.ranks[command.rank]
        if command.cycle < rank.activate_ready_at():
            raise ProtocolError(
                f"{command} violates tRRD/tFAW (rank ready "
                f"@{rank.activate_ready_at()})"
            )
        rank.banks[command.bank].activate(command.cycle, command.row)
        rank.record_activate(command.cycle)

    def _issue_cas(self, command: Command) -> int:
        is_write = command.kind is CommandType.WRITE
        rank = command.rank
        now = command.cycle
        earliest = self.earliest_cas(rank, command.bank, is_write)
        if now < earliest:
            raise ProtocolError(
                f"{command} violates bus/turnaround timing "
                f"(earliest @{earliest})"
            )
        bank = self.ranks[rank].banks[command.bank]
        row = bank.open_row
        if row is None:
            raise ProtocolError(f"{command} to a bank with no open row")
        if is_write:
            data_end = bank.write(now, row)
            self._last_write_data_end_by_rank[rank] = data_end
        else:
            data_end = bank.read(now, row)
            self._last_read_issue = now
        self._last_cas_issue_by_rank[rank] = now
        self._last_cas_rank = rank
        self._last_data_end = data_end
        return data_end

    # ------------------------------------------------------------------
    # Refresh bookkeeping surface for the controller.
    # ------------------------------------------------------------------
    def refresh_pending(self, now: int) -> List[int]:
        """Ranks with a refresh due at or before ``now``."""
        return [r.rank_id for r in self.ranks if r.refresh_pending(now)]

    def open_banks(self, rank: int) -> List[Tuple[int, int]]:
        """(bank_id, open_row) for every open bank in ``rank``."""
        out = []
        for bank in self.ranks[rank].banks:
            if bank.open_row is not None:
                out.append((bank.bank_id, bank.open_row))
        return out

    # ------------------------------------------------------------------
    # Observability (pull model: reads the stat counters, post-run).
    # ------------------------------------------------------------------
    def collect_metrics(self, registry) -> None:
        """Export device-level state into a metrics registry."""
        channel = str(self.channel_id)
        registry.counter(
            "repro_dram_commands_total", "DRAM commands issued on the bus"
        ).inc(self.stat_commands, channel=channel)
        refreshes = registry.counter(
            "repro_dram_refreshes_total", "REFRESH commands per rank"
        )
        open_rows = registry.gauge(
            "repro_dram_open_rows", "Banks left with an open row at collect"
        )
        for rank in self.ranks:
            refreshes.inc(
                rank.stat_refreshes, channel=channel, rank=str(rank.rank_id)
            )
            open_rows.set(
                len(self.open_banks(rank.rank_id)),
                channel=channel,
                rank=str(rank.rank_id),
            )
        floor = registry.counter(
            "repro_kernel_cas_floor_total",
            "Fast-kernel cas_floor evaluations: computed vs per-rank reuse",
        )
        floor.inc(self.kc_cas_floor_computed, channel=channel, result="computed")
        floor.inc(self.kc_cas_floor_skipped, channel=channel, result="skipped")
