"""The paper's contribution: Dynamic Bank Partitioning.

* :class:`~repro.core.profiler.ThreadProfiler` — runtime measurement of each
  thread's MPKI, row-buffer hit rate, and bank-level parallelism.
* :class:`~repro.core.demand.BankDemandEstimator` — turns a profile into an
  estimated bank demand per thread.
* :class:`~repro.core.dbp.DynamicBankPartitioning` — the epoch-based policy
  that reallocates bank colors to match demand.
* :mod:`~repro.core.integration` — named "approaches" combining partitioning
  policies with memory schedulers (DBP-TCM and every baseline combination
  the evaluation compares).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".profiler": ("ThreadProfiler",),
        ".demand": ("BankDemandEstimator", "DemandConfig"),
        ".dbp": ("DynamicBankPartitioning", "DBPConfig"),
        ".integration": ("APPROACHES", "Approach", "get_approach"),
        ".combined": ("CombinedPartitioning",),
    },
)
