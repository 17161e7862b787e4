"""Opt-in per-epoch instrumentation (profiles, decisions, queue state).

See :mod:`repro.telemetry.recorder` for the cost model: a system built
without a recorder pays one ``is None`` check per epoch boundary and
nothing per request. :mod:`repro.telemetry.stream` adds the on-disk
streaming sink (rotating JSONL with schema headers) and its loader.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".recorder": (
            "ControllerProbe",
            "TelemetryConfig",
            "TelemetryRecorder",
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
        ".stream": (
            "STREAM_SCHEMA",
            "STREAM_SCHEMA_VERSION",
            "StoredTelemetry",
            "TelemetryStreamWriter",
            "load_stream",
        ),
    },
)
