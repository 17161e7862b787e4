"""Partitioning baselines the paper compares against.

* :class:`~repro.baselines.shared.SharedPolicy` — no partitioning at all
  (every thread allocates anywhere); the unmanaged baseline.
* :class:`~repro.baselines.equal.EqualBankPartitioning` — static equal split
  of bank colors among cores (the prior bank-partitioning work DBP improves
  on).
* :class:`~repro.baselines.mcp.MemoryChannelPartitioning` — MCP from
  Muralidhara et al., MICRO 2011, reimplemented.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": (
            "PartitionContext",
            "PartitionPolicy",
            "make_policy",
            "policy_names",
        ),
        ".shared": ("SharedPolicy",),
        ".equal": ("EqualBankPartitioning",),
        ".mcp": ("MemoryChannelPartitioning", "MCPConfig"),
        ".fixed": ("FixedAllocationPolicy",),
    },
)
