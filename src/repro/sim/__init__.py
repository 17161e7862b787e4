"""Simulation wiring: event engine, system builder, experiment runner."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".engine": ("Engine",),
        ".system": ("System", "SystemResult"),
        ".runner": ("Runner", "RunResult", "WorkloadRunMetrics"),
    },
)
