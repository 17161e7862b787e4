"""Experiment-campaign subsystem: plan, execute, persist, report.

The reconstructed evaluation is a grid of fully independent
(mix x approach x seed x horizon) simulations. This package turns such a
grid into a *campaign*:

* :mod:`~repro.campaign.spec` **plans** — :meth:`CampaignSpec.plan` is
  the one place a grid becomes picklable :class:`RunSpec` cells
  (approaches travel by registry name; workers rebuild the policies);
* :mod:`~repro.campaign.executor` **executes** — :func:`execute` is the one
  place a cell is looked up, run and persisted: it hands the plan out to
  supervisor-owned worker processes (or, at one job, to the same worker
  function inline) with bounded retries and per-run deadlines enforced by
  killing and replacing the worker that overran;
* :mod:`~repro.campaign.store` **persists** — a content-addressed
  :class:`ResultStore` under ``benchmarks/results/store/`` makes re-runs
  free and interrupted campaigns resumable;
* :mod:`~repro.campaign.progress` **reports** — per-run progress with ETA
  and the final table/summary.

Entry points: :func:`run_campaign` for scripts and the
``repro-dbp campaign`` CLI; :func:`sweep_metrics` for the experiment
catalog's sweeps.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".executor": (
            "CampaignResult",
            "RunOutcome",
            "RunTimeoutError",
            "execute",
        ),
        ".failures": (
            "FailureAttempt",
            "FailureClass",
            "FailureRecord",
            "classify_failure",
        ),
        ".api": ("run_campaign", "sweep_metrics"),
        ".progress": (
            "ProgressPrinter",
            "aggregate_telemetry",
            "render_report",
        ),
        ".spec": (
            "DEFAULT_APPROACHES",
            "CampaignSpec",
            "RunSpec",
        ),
        ".store": (
            "STORE_VERSION",
            "ResultStore",
            "StoreStats",
            "default_store_dir",
            "run_key",
        ),
    },
)
