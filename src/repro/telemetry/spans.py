"""Hierarchical span tracing with Chrome-trace-event export.

The flight recorder complements the epoch-grained telemetry ring with a
*causal* view of execution: nested wall-clock spans (campaign → run →
alone/measure phase → policy epoch → migration burst → fault retry)
emitted as Chrome trace events, loadable directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Design constraints, in order:

* **Zero cost when off.**  Instrumentation sites call
  :func:`current_tracer` (a module-global read) and bail on ``None``.
  No tracer objects ever live on :class:`~repro.sim.system.System`.
* **Cross-process mergeable.**  Timestamps are absolute wall-clock
  microseconds (``time.time_ns() // 1000``), so per-worker trace files
  from a campaign pool land on one shared timeline when merged; each
  process contributes its own ``pid`` lane.
* **Nesting by containment.**  Chrome "X" (complete) events on the same
  ``pid``/``tid`` nest by time containment, which lets single-threaded
  emitters record retrospective spans (a policy epoch is only known to
  be over when the next boundary fires) and lets the campaign
  supervisor lay concurrent runs out on virtual ``tid`` lanes.

The exported document is ``{"traceEvents": [...]}`` — the JSON Object
Format of the Trace Event spec, which Perfetto's legacy importer
accepts.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..artefact import Corrupt, atomic_write, read_json

__all__ = [
    "SpanTracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "merge_traces",
    "merge_trace_files",
    "now_us",
    "write_trace_file",
    "load_trace_file",
]


def now_us() -> int:
    """Absolute wall-clock microseconds (mergeable across processes)."""
    return time.time_ns() // 1000


class SpanTracer:
    """Collects Chrome trace events for one process.

    A tracer is single-writer: one per process, installed via
    :func:`install_tracer`.  Concurrent *logical* activities (the
    supervisor tracking many in-flight runs) get their own virtual
    ``tid`` lanes from :meth:`lane`; events on different lanes never
    nest into each other.
    """

    MAIN_LANE = 0

    def __init__(self, process_name: str, pid: Optional[int] = None):
        self.pid = os.getpid() if pid is None else pid
        self._events: List[Dict[str, Any]] = []
        self._stack: Dict[int, List[Tuple[str, int, Dict[str, Any]]]] = {}
        self._lanes: Dict[str, int] = {}
        self._next_lane = 1
        self._meta("process_name", {"name": process_name})
        self._meta("thread_name", {"name": "main"}, tid=self.MAIN_LANE)

    # ------------------------------------------------------------------
    # lanes

    def lane(self, label: str) -> int:
        """Return a stable virtual ``tid`` for ``label`` (creates one)."""
        tid = self._lanes.get(label)
        if tid is None:
            tid = self._next_lane
            self._next_lane += 1
            self._lanes[label] = tid
            self._meta("thread_name", {"name": label}, tid=tid)
        return tid

    def _meta(self, name: str, args: Dict[str, Any], tid: int = 0) -> None:
        self._events.append(
            {
                "name": name,
                "ph": "M",
                "pid": self.pid,
                "tid": tid,
                "args": args,
            }
        )

    # ------------------------------------------------------------------
    # spans

    def begin(self, name: str, lane: int = 0, **args: Any) -> None:
        """Open a span; close it with :meth:`end` (LIFO per lane)."""
        self._stack.setdefault(lane, []).append((name, now_us(), args))

    def end(self, lane: int = 0, **args: Any) -> None:
        """Close the innermost open span on ``lane``."""
        name, start, open_args = self._stack[lane].pop()
        if args:
            open_args = dict(open_args, **args)
        self.complete(name, start, now_us() - start, lane=lane, **open_args)

    @contextmanager
    def span(self, name: str, lane: int = 0, **args: Any):
        """``with tracer.span("run", mix="M4"):`` — span around a block."""
        self.begin(name, lane=lane, **args)
        try:
            yield self
        finally:
            self.end(lane=lane)

    def complete(
        self,
        name: str,
        start_us: int,
        dur_us: int,
        lane: int = 0,
        **args: Any,
    ) -> None:
        """Record a retrospective span (already-elapsed interval)."""
        event: Dict[str, Any] = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": start_us,
            "dur": max(int(dur_us), 1),
            "pid": self.pid,
            "tid": lane,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant(self, name: str, lane: int = 0, **args: Any) -> None:
        """Record a zero-duration marker (``ph: "i"``)."""
        event: Dict[str, Any] = {
            "name": name,
            "cat": "repro",
            "ph": "i",
            "s": "t",
            "ts": now_us(),
            "pid": self.pid,
            "tid": lane,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    # ------------------------------------------------------------------
    # export

    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome/Perfetto JSON document for this tracer alone."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        write_trace_file(path, self.to_chrome())


# ----------------------------------------------------------------------
# Module-global tracer: instrumentation sites read this instead of
# threading a tracer handle through System/Runner construction, which
# would put wall-clock state on picklable simulation objects.

_TRACER: Optional[SpanTracer] = None


def current_tracer() -> Optional[SpanTracer]:
    """The installed tracer for this process, or ``None`` (the default)."""
    return _TRACER


def install_tracer(tracer: Optional[SpanTracer]) -> Optional[SpanTracer]:
    """Install ``tracer`` process-wide; returns the previous one.

    Returning the previous tracer lets in-process callers (the serial
    campaign fallback) save and restore around a scoped install.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def uninstall_tracer() -> None:
    install_tracer(None)


# ----------------------------------------------------------------------
# Merge: one timeline from many per-process files.


def write_trace_file(path: str, document: Dict[str, Any]) -> None:
    with atomic_write(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")


def load_trace_file(path: str) -> Dict[str, Any]:
    """A span file's document; ``ValueError`` (:class:`Corrupt`) when it is
    missing, damaged or not a Chrome trace event document."""
    document = read_json(path, None, kind="span file")
    if "traceEvents" not in document:
        raise Corrupt(f"{path}: not a Chrome trace event document")
    return document


def merge_traces(documents: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge trace documents onto one timeline.

    Events keep their own ``pid``/``tid``; absolute timestamps mean no
    re-basing is needed.  Events are sorted by timestamp (metadata
    first) so the output is stable regardless of arrival order.
    """
    events: List[Dict[str, Any]] = []
    for document in documents:
        events.extend(document.get("traceEvents", []))
    events.sort(
        key=lambda e: (e.get("ph") != "M", e.get("ts", 0), e.get("pid", 0))
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merge_trace_files(
    paths: Iterable[str],
    extra: Iterable[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Merge per-process trace files; missing files are skipped.

    Workers that died mid-attempt (a SIGKILL fault) may never have
    flushed a file — the supervisor's own lane still records the
    attempt, so a hole here is survivable, not an error.  ``extra``
    appends in-memory documents (the supervisor's own tracer).
    """
    documents = []
    for path in paths:
        if os.path.exists(path):
            documents.append(load_trace_file(path))
    documents.extend(extra)
    return merge_traces(documents)
