"""Experiment catalog: every table and figure of the reconstructed evaluation.

Each experiment is a function taking a :class:`~repro.sim.runner.Runner`
(and optional scope arguments) and returning an
:class:`~repro.experiments.report.ExperimentResult` that renders as the
same rows/series the paper's table or figure reports. The pytest-benchmark
modules under ``benchmarks/`` are thin wrappers over these functions, and
the CLI exposes them as ``repro-dbp run <id>``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".report": ("ExperimentResult", "render_table"),
        ".catalog": (
            "EXPERIMENTS",
            "run_experiment",
            "t1_configuration",
            "t2_characteristics",
            "t3_mixes",
            "f1_bank_sensitivity",
            "f2_ws_dbp_vs_ebp",
            "f3_ms_dbp_vs_ebp",
            "f4_dbp_tcm",
            "f5_schedulers",
            "f6_banks_sweep",
            "f7_cores_sweep",
            "f8_epoch_sweep",
            "f9_ablation",
            "f10_page_policy",
            "f11_prefetching",
            "f12_xor_interleaving",
            "f13_seed_robustness",
        ),
    },
)
