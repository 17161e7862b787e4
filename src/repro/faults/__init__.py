"""Deterministic fault-injection harness.

Seed-driven, stateless-at-runtime injectors for chaos-testing the campaign
layer: worker crashes (real ``SIGKILL``), hangs past the deadline,
transient and deterministic exceptions, corrupted store blobs and
truncated trace files. See
:mod:`repro.faults.plan` for how firing decisions stay deterministic
across processes and retries.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".injectors": (
            "TransientFaultError",
            "corrupt_file",
            "crash_process",
            "hang",
            "truncate_file",
        ),
        ".plan": ("FAULT_KINDS", "FaultPlan", "FaultPlanError", "FaultSpec"),
        ".runtime": (
            "active_plan",
            "install_plan",
            "maybe_fire",
            "reset",
        ),
    },
)
