"""Trace records and trace containers.

A trace is the unit of workload: an ordered stream of records, each meaning
"execute ``gap`` non-memory instructions, then one memory instruction that
touches virtual cache line ``vline``". Traces loop when replayed for longer
than their length, which is the standard methodology for fixed-horizon
multiprogrammed runs.
"""

from __future__ import annotations

import copy
import hashlib
from array import array
from itertools import accumulate
from typing import Iterable, Iterator, List, NamedTuple, Optional

from ..errors import TraceError


class TraceRecord(NamedTuple):
    """One trace entry. ``vline`` is a virtual cache-line address."""

    gap: int
    vline: int
    is_write: bool


def _column(typecode: str, values) -> array:
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, values)


def _domain_error(name: str, *columns) -> TraceError:
    """The error naming the first record outside the ``.rtrc`` v1 domain."""
    limits = (("gap", 32), ("address", 64), ("write flag", 1))
    for (what, bits), column in zip(limits, columns):
        for index, value in enumerate(column):
            if not (isinstance(value, int) and 0 <= value < 1 << bits):
                return TraceError(
                    f"trace {name!r} record {index}: {what} {value!r} is "
                    f"outside the format's {bits}-bit limit"
                )
    return TraceError(f"trace {name!r}: columns differ in length")


class Trace:
    """An append-only memory trace held as three typed columns.

    ``gaps[i]`` (u32), ``vlines[i]`` (u64) and ``writes[i]`` (0/1) are
    record ``i``; ``cumulative_insts[i]`` counts instructions through it.
    :class:`TraceRecord` is only the row type of ``iter(trace)``,
    :attr:`records` and the importers — rows are never stored.

    A trace built :meth:`on_demand` knows its length from the start but
    holds only the records filled so far. Every public accessor completes
    it first, so only :class:`~repro.cpu.core.Core`, which reads the
    growing prefix through :meth:`extend_to`, ever sees a partial trace.
    """

    def __init__(self, name: str, records: Iterable[TraceRecord]) -> None:
        rows = list(records)
        self._adopt(name, *([row[i] for row in rows] for i in range(3)))

    @classmethod
    def from_columns(cls, name: str, gaps, vlines, writes) -> "Trace":
        """Build from parallel columns; typed arrays are adopted uncopied."""
        trace = cls.__new__(cls)
        trace._adopt(name, gaps, vlines, writes)
        return trace

    @classmethod
    def on_demand(cls, name: str, length: int, source) -> "Trace":
        """An empty trace of ``length`` records that ``source`` fills.

        ``source.fill(gaps, vlines, writes, upto)`` appends records to the
        columns until they hold ``upto`` (whole bursts, so possibly more,
        but never past ``length``). A partial trace pickles its source with
        it, so the source must be picklable.
        """
        trace = cls.__new__(cls)
        trace._init(name, length, array("I"), array("Q"), bytearray(), source)
        return trace

    def _adopt(self, name: str, gaps, vlines, writes) -> None:
        if not len(gaps):
            raise TraceError(f"trace {name!r} is empty")
        try:
            columns = _column("I", gaps), _column("Q", vlines), bytes(writes)
        except (OverflowError, TypeError, ValueError):
            raise _domain_error(name, gaps, vlines, writes) from None
        if max(columns[2]) > 1 or not len(gaps) == len(vlines) == len(writes):
            raise _domain_error(name, gaps, vlines, writes)
        self._init(name, len(gaps), *columns, None)

    def _init(
        self, name: str, length: int, gaps, vlines, writes, source
    ) -> None:
        self.name = name
        self.total_requests = length
        self._gaps, self._vlines, self._writes = gaps, vlines, writes
        # _cum[i] = instructions up to and including record i's memory
        # instruction (each record is gap + 1 instructions).
        self._cum = array("Q", accumulate(g + 1 for g in gaps))
        self._source = source
        self._footprint_lines: Optional[int] = None
        self._digest: Optional[str] = None

    def extend_to(self, n: int) -> int:
        """Fill at least ``min(n, len(self))`` records and return how many
        are filled — ``len(self)`` once the trace is complete.

        The columns only grow in place, so a reader holding them sees every
        fill, and a :meth:`renamed` copy shares them and the source.
        """
        cum = self._cum
        filled = len(cum)
        if n > filled and self._source is not None:
            self._source.fill(
                self._gaps,
                self._vlines,
                self._writes,
                min(n, self.total_requests),
            )
            total = cum[-1] if filled else 0
            cum.extend(
                total + insts
                for insts in accumulate(g + 1 for g in self._gaps[filled:])
            )
            filled = len(cum)
            if filled == self.total_requests:
                self._source = None
        return filled

    def _complete(self) -> "Trace":
        if self._source is not None:
            self.extend_to(self.total_requests)
        return self

    @property
    def gaps(self) -> array:
        return self._complete()._gaps

    @property
    def vlines(self) -> array:
        return self._complete()._vlines

    @property
    def writes(self):
        return self._complete()._writes

    @property
    def cumulative_insts(self) -> array:
        return self._complete()._cum

    @property
    def total_insts(self) -> int:
        return self._complete()._cum[-1]

    def renamed(self, name: str) -> "Trace":
        """The same trace under another name, sharing columns and caches."""
        clone = copy.copy(self)
        clone.name = name
        return clone

    def __len__(self) -> int:
        return self.total_requests

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord, self.gaps, self.vlines, map(bool, self.writes))

    @property
    def records(self) -> List[TraceRecord]:
        """The rows, materialised on every access (O(n)); for cold callers."""
        return list(self)

    @property
    def mean_gap(self) -> float:
        """Average non-memory instructions between memory accesses."""
        return (self.total_insts - self.total_requests) / self.total_requests

    @property
    def intrinsic_mpki(self) -> float:
        """Memory accesses per kilo-instruction, before cache filtering."""
        return 1000.0 * self.total_requests / self.total_insts

    def footprint_lines(self) -> int:
        """Number of distinct virtual lines the trace touches (cached)."""
        if self._footprint_lines is None:
            self._footprint_lines = len(set(self.vlines))
        return self._footprint_lines

    @property
    def digest(self) -> str:
        """Stable SHA-256 content hash of the record stream (cached).

        Hashes records only — not the name — so a renamed copy of the same
        access stream is recognized as the same workload. This is the one
        digest definition shared by the trace library's ``.rtrc`` files and
        the campaign store's run keys.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            for row in zip(self.gaps, self.vlines, self.writes):
                hasher.update(b"%d %d %d\n" % row)
            self._digest = hasher.hexdigest()
        return self._digest


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace in the plain-text interchange format.

    Format: a header line ``#trace <name>``, then one record per line:
    ``<gap> <vline> <R|W>``.
    """
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"#trace {trace.name}\n")
        for gap, vline, write in zip(trace.gaps, trace.vlines, trace.writes):
            handle.write(f"{gap} {vline} {'W' if write else 'R'}\n")


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    records: List[TraceRecord] = []
    name = "unnamed"
    with open(path, "r", encoding="ascii") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#trace"):
                parts = line.split(maxsplit=1)
                if len(parts) == 2:
                    name = parts[1]
                continue
            fields = line.split()
            if len(fields) != 3 or fields[2] not in ("R", "W"):
                raise TraceError(f"{path}:{line_no}: malformed record {line!r}")
            try:
                gap, vline = int(fields[0]), int(fields[1])
            except ValueError:
                raise TraceError(
                    f"{path}:{line_no}: non-integer field in {line!r}"
                ) from None
            records.append(TraceRecord(gap, vline, fields[2] == "W"))
    return Trace(name, records)

