"""Synthetic SPEC-like workloads and multiprogrammed mixes.

The paper evaluates multiprogrammed SPEC CPU2006 mixes. SPEC binaries and
their traces are proprietary, so this package substitutes synthetic trace
generators whose *memory behaviour* — MPKI, row-buffer locality, bank-level
parallelism, footprint, write mix — is calibrated to published
characterizations of each benchmark (see DESIGN.md, "Substitutions"). The
partitioning and scheduling policies under study only ever observe those
properties, which is what makes the substitution sound.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".profiles": (
            "AppProfile",
            "APP_PROFILES",
            "INTENSIVE_MPKI_THRESHOLD",
            "app_intensive",
            "get_profile",
            "profiles_by_intensity",
            "validate_app",
        ),
        ".synthetic": ("generate_trace",),
        ".mixes": (
            "Mix",
            "MIXES",
            "adhoc_mix",
            "get_mix",
            "mixes_for_cores",
            "resolve_mix",
        ),
    },
)
