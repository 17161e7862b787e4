"""Trace-driven core model.

A :class:`~repro.cpu.trace.Trace` is a sequence of (compute gap, memory
access) records; a :class:`~repro.cpu.core.Core` replays it through an
event-driven interval model of a W-wide out-of-order core with an R-entry
ROB and an MSHR-limited number of outstanding misses. The model costs one
event per memory request rather than one per cycle, which is what makes a
pure-Python cycle study of this scale feasible.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".trace": ("Trace", "TraceRecord", "load_trace", "save_trace"),
        ".core": ("Core", "CoreStats"),
    },
)
