"""Experiment catalog: every table and figure of the reconstructed evaluation.

:data:`~repro.experiments.catalog.EXPERIMENTS` is one table with an entry
per experiment id. Most entries are grids of (config variant, seed, mixes,
approaches) cells that one function runs through the campaign sweep path;
the few that are not grids name a small function of their own.
:func:`~repro.experiments.catalog.run_experiment` runs any entry with a
:class:`~repro.sim.runner.Runner` (and optional scope arguments) and returns
an :class:`~repro.experiments.report.ExperimentResult` that renders as the
same rows/series the paper's table or figure reports. The pytest-benchmark
modules under ``benchmarks/`` are thin wrappers over it, and the CLI
exposes it as ``repro-dbp run <id>``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".report": ("ExperimentResult", "render_table"),
        ".catalog": ("EXPERIMENTS", "run_experiment"),
    },
)
