"""Auto-tuning subsystem: search over policy parameters with the
campaign grid as the objective function.

The paper's policies carry magic constants (DBP's epoch length and EWMA
weight, the intensive-MPKI cutoff, TCM's cluster boundary, BLISS's
blacklist threshold, the migration budget). This package turns the
existing campaign machinery into a tuner for them:

* :mod:`~repro.tuner.space`     — the declarative tunable registry
  (``tunables()`` protocol on policy/scheduler/migration classes) and
  **parameterized approach names** (``dbp@epoch_cycles=20000``) that any
  process resolves identically;
* :mod:`~repro.tuner.searchers` — seeded deterministic strategies behind
  one ask/tell interface: random search and TPE;
* :mod:`~repro.tuner.objective` — a parameter point → RunSpecs over a
  mix set → the supervised executor + content-addressed store (repeat
  points are cache hits) → scalarized WS/MS/HS score;
* :mod:`~repro.tuner.studies`   — one store document per study, which
  ``tune report|frontier`` read;
* :mod:`~repro.tuner.report`    — trial tables and the WS-vs-MS Pareto
  frontier against the paper defaults, with an explicit verdict;
* :mod:`~repro.tuner.api`       — :func:`~repro.tuner.api.run_study`,
  the loop the ``repro-dbp tune`` CLI drives.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".api": ("StudyResult", "run_study", "study_name"),
        ".objective": (
            "OBJECTIVES",
            "CampaignObjective",
            "TrialResult",
            "scalarize",
        ),
        ".report": (
            "dominates",
            "frontier_doc",
            "pareto_front",
            "render_frontier",
            "render_studies",
            "render_trials",
        ),
        ".searchers": (
            "STRATEGIES",
            "RandomSearcher",
            "Searcher",
            "TPESearcher",
            "TrialPoint",
            "make_searcher",
        ),
        ".space": (
            "ParameterSpace",
            "Tunable",
            "approach_space",
            "derive_approach",
            "format_params",
            "parameterized_name",
            "parse_params",
            "split_point",
        ),
        ".studies": (
            "study_path", "study_summaries", "trial_rows", "write_study",
        ),
    },
)
