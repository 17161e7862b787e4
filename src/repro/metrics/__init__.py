"""System-level performance and fairness metrics, plus the simulator-wide
metrics registry (see :mod:`repro.metrics.registry`)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".metrics": (
            "harmonic_speedup",
            "max_slowdown",
            "slowdowns",
            "summarize",
            "MetricSummary",
            "weighted_speedup",
        ),
        ".kernelstats": ("kernel_counter_summary", "render_kernel_summary"),
        ".registry": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "prometheus_text",
        ),
    },
)
