"""Experiment-campaign subsystem: plan, execute, persist, report.

The reconstructed evaluation is a grid of fully independent
(mix x approach x seed x horizon) simulations. This package turns such a
grid into a *campaign*:

* :mod:`~repro.campaign.spec` **plans** — expands a
  :class:`CampaignSpec` into picklable :class:`RunSpec` cells (approaches
  travel by registry name; workers rebuild the policies);
* :mod:`~repro.campaign.executor` **executes** — hands the plan out to
  supervisor-owned worker processes with bounded retries and per-run
  deadlines enforced by killing and replacing the worker that overran;
* :mod:`~repro.campaign.store` **persists** — a content-addressed
  :class:`ResultStore` under ``benchmarks/results/store/`` makes re-runs
  free and interrupted campaigns resumable;
* :mod:`~repro.campaign.progress` **reports** — per-run progress with ETA
  and the final table/summary.

Entry points: :func:`run_campaign` for scripts and the
``repro-dbp campaign`` CLI; :func:`sweep_metrics` for the experiment
catalog's sweeps.
"""

from .executor import (
    CampaignResult,
    RunOutcome,
    RunTimeoutError,
    execute,
    execute_one,
)
from .failures import (
    FailureAttempt,
    FailureClass,
    FailureRecord,
    classify_failure,
)
from .api import run_campaign, sweep_metrics
from .progress import ProgressPrinter, aggregate_telemetry, render_report
from .spec import DEFAULT_APPROACHES, CampaignSpec, RunSpec, plan_sweep
from .store import (
    STORE_VERSION,
    ResultStore,
    StoreStats,
    default_store_dir,
    run_key,
    runner_fingerprint,
)

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "plan_sweep",
    "DEFAULT_APPROACHES",
    "CampaignResult",
    "RunOutcome",
    "RunTimeoutError",
    "execute",
    "execute_one",
    "FailureAttempt",
    "FailureClass",
    "FailureRecord",
    "classify_failure",
    "run_campaign",
    "sweep_metrics",
    "ProgressPrinter",
    "aggregate_telemetry",
    "render_report",
    "ResultStore",
    "StoreStats",
    "STORE_VERSION",
    "default_store_dir",
    "run_key",
    "runner_fingerprint",
]
