"""Opt-in per-epoch instrumentation (profiles, decisions, queue state).

See :mod:`repro.telemetry.recorder` for the cost model: a system built
without a recorder pays one ``is None`` check per epoch boundary and
nothing per request. The recorder's epoch log is the one on-disk form of
its records.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".recorder": (
            "ControllerProbe",
            "TelemetryRecorder",
            "read_epoch_log",
            "write_epoch_log",
        ),
        ".report": ("render_decisions", "render_timeline"),
        ".spans": (
            "SpanTracer",
            "current_tracer",
            "install_tracer",
            "load_trace_file",
            "merge_trace_files",
            "merge_traces",
            "uninstall_tracer",
            "write_trace_file",
        ),
    },
)
