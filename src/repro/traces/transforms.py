"""Trace transforms: shape an imported trace before registering it.

Real-trace dumps rarely arrive run-ready: they open with a warmup phase,
cover more memory than a small simulated machine should map, or need to be
spliced into phased workloads. Every transform returns a **new**
:class:`~repro.cpu.trace.Trace` (traces are append-only) and composes with
every other, so an import pipeline is just function application::

    trace = import_trace("app.trace")
    trace = skip_warmup(trace, insts=1_000_000)
    trace = remap_footprint(trace, max_pages=8192)
    trace = slice_records(trace, stop=20_000)
"""

from __future__ import annotations

import bisect
from array import array
from typing import Optional

from ..cpu.trace import Trace, concatenate
from ..errors import TraceError
from ..workloads.synthetic import LINES_PER_PAGE


def slice_records(
    trace: Trace,
    start: int = 0,
    stop: Optional[int] = None,
    name: Optional[str] = None,
) -> Trace:
    """The records in ``[start, stop)``, as a standalone trace."""
    if start < 0:
        raise TraceError(f"slice start must be >= 0, got {start}")
    end = len(trace) if stop is None else stop
    gaps = trace.gaps[start:end]
    if not gaps:
        raise TraceError(
            f"slice [{start}:{end}) of trace {trace.name!r} "
            f"({len(trace)} records) is empty"
        )
    return Trace.from_columns(
        name or f"{trace.name}[{start}:{end}]",
        gaps,
        trace.vlines[start:end],
        trace.writes[start:end],
    )


def skip_warmup(
    trace: Trace, insts: int, name: Optional[str] = None
) -> Trace:
    """Drop the leading records covering the first ``insts`` instructions.

    The standard methodology move: real dumps include a cache/branch
    warmup phase whose memory behaviour is not the program's steady state.
    """
    if insts < 0:
        raise TraceError(f"warmup instruction count must be >= 0, got {insts}")
    # cumulative_insts[i] counts instructions through record i; keep the
    # first record whose cumulative count exceeds the warmup window.
    first = bisect.bisect_left(trace.cumulative_insts, insts + 1)
    if first >= len(trace):
        raise TraceError(
            f"warmup of {insts} instructions consumes all of trace "
            f"{trace.name!r} ({trace.total_insts} instructions)"
        )
    if first == 0:
        return trace
    return slice_records(trace, first, name=name or trace.name)


def remap_footprint(
    trace: Trace, max_pages: int, name: Optional[str] = None
) -> Trace:
    """Fold the virtual footprint into at most ``max_pages`` 4 KB pages.

    Page-granular modulo folding: the line offset within each page is
    preserved, so sequential runs — and therefore row-buffer locality —
    survive, while the page working set shrinks to something a small
    simulated memory can map without exhausting frames.
    """
    if max_pages < 1:
        raise TraceError(f"max_pages must be >= 1, got {max_pages}")
    # page % max_pages with the line offset kept is one modulo on the line.
    fold = max_pages * LINES_PER_PAGE
    vlines = array("Q", (vline % fold for vline in trace.vlines))
    return Trace.from_columns(
        name or trace.name, trace.gaps, vlines, trace.writes
    )


def splice_phases(name: str, *phases: Trace) -> Trace:
    """Concatenate traces back-to-back as one phased workload.

    A thin, validating wrapper over :func:`repro.cpu.trace.concatenate` so
    the library's transform vocabulary is complete in one module.
    """
    if not phases:
        raise TraceError("splice_phases needs at least one phase")
    return concatenate(name, phases)
