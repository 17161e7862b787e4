"""The reconstructed evaluation as one table: an entry per table/figure.

Most figures are grids — rows of (config variant, seed, mixes, approaches)
cells reduced to gmeans over mixes — and are data in :data:`EXPERIMENTS`,
run by one function through the campaign sweep path. The few experiments
that are not grids (T1–T3, F1, F9) are small functions named by their
entry. Scope arguments (``mixes``, ``horizon`` via the Runner) let the
benches and the CLI trade coverage for time without changing what each
experiment means. See DESIGN.md's per-experiment index for the mapping to
the paper's claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..baselines.fixed import FixedAllocationPolicy
from ..campaign.store import scope_of
from ..config import PrefetcherConfig
from ..core.dbp import DBPConfig, DynamicBankPartitioning
from ..core.demand import DemandConfig
from ..errors import ExperimentError
from ..sim.runner import Runner
from ..sim.system import System
from ..traces.characterize import characterize_trace
from ..utils import geometric_mean
from ..workloads import MIXES, get_mix, mixes_for_cores
from ..workloads.mixes import MAIN_MIXES
from .report import ExperimentResult, percent_delta

#: Subset used by the heavier sweeps to bound wall-clock time.
FAST_MIXES: List[str] = ["M1", "M4", "M6", "M7", "M10"]

#: Applications whose bank-count sensitivity F1 plots.
F1_APPS: List[str] = ["mcf", "lbm", "libquantum", "milc"]


def _gmean_or_nan(values: Sequence[float]) -> float:
    return geometric_mean(values) if values else float("nan")


# ---------------------------------------------------------------------------
# Experiments that are not grids: the tables, F1 and F9.
# ---------------------------------------------------------------------------
def t1_configuration(runner: Runner) -> ExperimentResult:
    """T1: the simulated system configuration."""
    result = ExperimentResult(
        exp_id="T1",
        title="System configuration",
        columns=["parameter", "value"],
    )
    for line in runner.config.describe().splitlines():
        key, _, value = line.partition(":")
        result.rows.append([key.strip(), value.strip()])
    return result


def t2_characteristics(
    runner: Runner, apps: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """T2: measured alone-run characteristics of every application."""
    if apps is None:
        from ..workloads.profiles import APP_PROFILES

        apps = sorted(APP_PROFILES, key=lambda a: -APP_PROFILES[a].mpki)
    result = ExperimentResult(
        exp_id="T2",
        title="Benchmark characteristics (measured, alone on full machine)",
        columns=["app", "ipc", "mpki", "rbh", "blp", "class"],
    )
    for app in apps:
        c = characterize_trace(
            runner.trace_for(app), runner.config, runner.horizon
        )
        result.rows.append(
            [app, c.ipc_alone, c.mpki, c.rbh, c.blp, c.mpki_class]
        )
    return result


def t3_mixes(runner: Runner) -> ExperimentResult:
    """T3: the multiprogrammed workload mixes."""
    result = ExperimentResult(
        exp_id="T3",
        title="Workload mixes",
        columns=["mix", "category", "intensive", "applications"],
    )
    for name in sorted(MIXES, key=lambda n: (len(MIXES[n].apps), n)):
        mix = MIXES[name]
        result.rows.append(
            [
                mix.name,
                mix.category,
                f"{mix.intensive_count()}/{mix.num_cores}",
                " ".join(mix.apps),
            ]
        )
    return result


def f1_bank_sensitivity(
    runner: Runner,
    apps: Optional[Sequence[str]] = None,
    bank_counts: Sequence[int] = (1, 2, 4, 8),
) -> ExperimentResult:
    """F1 (motivation): single-thread IPC versus banks available.

    High-BLP, low-locality applications (mcf-like) lose IPC sharply when
    confined to few bank colors; streaming applications are nearly flat.
    This is the bank-level-parallelism loss equal partitioning inflicts and
    DBP exists to avoid.
    """
    apps = list(apps) if apps is not None else list(F1_APPS)
    max_colors = runner.config.bank_colors
    counts = [c for c in bank_counts if c <= max_colors]
    result = ExperimentResult(
        exp_id="F1",
        title="Single-thread IPC vs. bank colors (normalized to max)",
        columns=["app"] + [f"{c} colors" for c in counts],
    )
    for app in apps:
        ipcs = []
        for count in counts:
            config = replace(runner.config, num_cores=1)
            policy = FixedAllocationPolicy({0: list(range(count))})
            system = System(
                config,
                [runner.trace_for(app)],
                horizon=runner.horizon,
                policy=policy,
            )
            system.run()
            ipcs.append(system.cores[0].ipc())
        base = ipcs[-1]
        result.rows.append([app] + [ipc / base for ipc in ipcs])
    # Summary: how much the most bank-hungry app loses at the fewest banks.
    losses = {row[0]: 100.0 * (1.0 - row[1]) for row in result.rows}
    for app, loss in losses.items():
        result.summary[f"{app}_loss_at_min_banks"] = -loss
    return result


def f9_ablation(runner: Runner, mixes: Sequence[str]) -> ExperimentResult:
    """F9 (ablation): demand-estimator ingredients.

    Variants: the full estimator; BLP-only (no streaming deduction — a
    high-RBH threshold of 1.0 never fires, as row-buffer hit rates are at
    most 1); MPKI-proportional (strawman); full but without pooling
    non-intensive threads. The MPKI and no-pool variants have no approach
    name, so F9 runs explicit policy instances rather than a grid.
    """
    variants = [
        ("full", DBPConfig()),
        ("blp-only", DBPConfig(demand=DemandConfig(high_rbh_threshold=1.0))),
        ("mpki", DBPConfig(demand=DemandConfig(mode="mpki"))),
        ("no-pool", DBPConfig(pool_non_intensive=False)),
    ]
    result = ExperimentResult(
        exp_id="F9",
        title="DBP demand-estimator ablation (gmean over mixes)",
        columns=["variant", "ws", "ms"],
    )
    for label, dbp_config in variants:
        ws, ms = [], []
        for mix_name in mixes:
            mix = get_mix(mix_name)
            policy = DynamicBankPartitioning(dbp_config)
            metrics = runner.run_custom(
                list(mix.apps),
                policy,
                label=f"dbp-{label}",
                mix_name=mix.name,
            ).metrics
            ws.append(metrics.weighted_speedup)
            ms.append(metrics.max_slowdown)
        result.rows.append([label, _gmean_or_nan(ws), _gmean_or_nan(ms)])
    return result


# ---------------------------------------------------------------------------
# The table.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Row:
    """One table row: its label and the grid cell it reduces.

    ``config`` overrides fields of the Runner's configuration (a dict value
    overrides fields of that sub-config); ``seed`` regenerates every trace
    and every alone-run baseline; ``mixes`` replaces the experiment's mix
    scope. A row that sets none of them runs on the caller's Runner.
    """

    label: str
    approaches: Tuple[str, ...]
    config: Mapping[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    mixes: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class Experiment:
    """One catalog entry.

    ``mixes`` is the default mix scope; None means the experiment takes
    none. A grid entry's cells are the gmean over mixes of each metric
    under each of the row's approaches, metric-major (``ebp ws, dbp ws,
    ebp ms, dbp ms``); ``row_deltas`` append the percent change of one
    column over another. With ``per_mix`` the row's approaches are the
    columns instead: one table row per mix, then the row's own gmeans.
    ``rows`` may be a function of the entry's extra scope arguments.
    Experiments that are not grids name their own ``run``.
    """

    exp_id: str
    doc: str
    title: str = ""
    columns: Tuple[str, ...] = ()
    mixes: Optional[Sequence[str]] = None
    rows: Union[Tuple[Row, ...], Callable[..., Tuple[Row, ...]]] = ()
    metrics: Tuple[str, ...] = ("ws", "ms")
    per_mix: bool = False
    row_deltas: Tuple[Tuple[str, str], ...] = ()
    #: Named scalars of the finished table: the percent change of cell
    #: (row label, column) over cell (base row label, base column), or a
    #: function of the whole table.
    summary: Mapping[str, object] = field(default_factory=dict)
    notes: str = ""
    run: Optional[Callable[..., ExperimentResult]] = None


def _hand_written(
    exp_id: str, run: Callable[..., ExperimentResult], mixes=None
) -> Experiment:
    doc = (run.__doc__ or "").strip().splitlines()[0]
    return Experiment(exp_id, doc, mixes=mixes, run=run)


def _epoch_rows(
    epochs: Sequence[int] = (10_000, 25_000, 50_000, 100_000),
) -> Tuple[Row, ...]:
    return tuple(Row(str(e), (f"dbp@epoch_cycles={e}",)) for e in epochs)


def _seed_rows(seeds: Sequence[int] = (1, 2, 3)) -> Tuple[Row, ...]:
    return tuple(Row(str(s), ("ebp", "dbp"), seed=s) for s in seeds)


_C1 = ("shared-frfcfs", "ebp", "dbp")

EXPERIMENTS: Dict[str, Experiment] = {
    e.exp_id: e
    for e in (
        _hand_written("T1", t1_configuration),
        _hand_written("T2", t2_characteristics),
        _hand_written("T3", t3_mixes),
        _hand_written("F1", f1_bank_sensitivity),
        Experiment(
            "F2",
            "F2: weighted speedup — Shared(FR-FCFS) vs EBP vs DBP (claim C1).",
            title="Weighted speedup per mix",
            columns=("mix",) + _C1,
            mixes=MAIN_MIXES,
            rows=(Row("gmean", _C1),),
            metrics=("ws",),
            per_mix=True,
            summary={
                "dbp_vs_ebp_ws_pct": ("gmean", "dbp", "gmean", "ebp"),
                "dbp_vs_shared_ws_pct": ("gmean", "dbp", "gmean", "shared-frfcfs"),
            },
            notes="paper claim C1: DBP improves WS over EBP by ~4.3%",
        ),
        Experiment(
            "F3",
            "F3: maximum slowdown — Shared(FR-FCFS) vs EBP vs DBP (claim C1).",
            title="Maximum slowdown per mix (lower is fairer)",
            columns=("mix",) + _C1,
            mixes=MAIN_MIXES,
            rows=(Row("gmean", _C1),),
            metrics=("ms",),
            per_mix=True,
            summary={
                "dbp_vs_ebp_ms_pct": ("gmean", "dbp", "gmean", "ebp"),
                "dbp_vs_shared_ms_pct": ("gmean", "dbp", "gmean", "shared-frfcfs"),
            },
            notes="paper claim C1: DBP improves fairness over EBP by ~16%",
        ),
        Experiment(
            "F4",
            "F4: TCM vs MCP vs EBP-TCM vs DBP-TCM (claims C2 and C3).",
            title="Scheduling x partitioning: WS and MS (gmean over mixes)",
            columns=("approach", "ws", "ms", "hs"),
            mixes=MAIN_MIXES,
            rows=tuple(Row(a, (a,)) for a in ("tcm", "mcp", "ebp-tcm", "dbp-tcm")),
            metrics=("ws", "ms", "hs"),
            summary={
                "dbptcm_vs_tcm_ws_pct": ("dbp-tcm", "ws", "tcm", "ws"),
                "dbptcm_vs_tcm_ms_pct": ("dbp-tcm", "ms", "tcm", "ms"),
                "dbptcm_vs_mcp_ws_pct": ("dbp-tcm", "ws", "mcp", "ws"),
                "dbptcm_vs_mcp_ms_pct": ("dbp-tcm", "ms", "mcp", "ms"),
            },
            notes=(
                "paper claims C2/C3: DBP-TCM over TCM +6.2% WS / +16.7% "
                "fairness; over MCP +5.3% WS / +37% fairness"
            ),
        ),
        Experiment(
            "F5",
            "F5 (context): the six memory schedulers, unpartitioned.",
            title="Memory schedulers without partitioning (gmean over mixes)",
            columns=("scheduler", "ws", "ms", "hs"),
            mixes=FAST_MIXES,
            rows=tuple(
                Row(a, (a,))
                for a in (
                    "shared-fcfs", "shared-frfcfs", "parbs", "atlas", "bliss", "tcm",
                )
            ),
            metrics=("ws", "ms", "hs"),
            summary={
                "frfcfs_vs_fcfs_ws_pct": ("shared-frfcfs", "ws", "shared-fcfs", "ws"),
            },
        ),
        Experiment(
            "F6",
            "F6 (sensitivity): bank colors per channel (8 / 16 / 32).",
            title="DBP vs EBP across bank-color counts (gmean over mixes)",
            columns=("colors", "ebp ws", "dbp ws", "ebp ms", "dbp ms"),
            mixes=FAST_MIXES,
            rows=tuple(
                Row(
                    label,
                    ("ebp", "dbp"),
                    config={
                        "organization": {
                            "ranks_per_channel": ranks,
                            "banks_per_rank": banks,
                        }
                    },
                )
                for label, ranks, banks in (("8", 1, 8), ("16", 2, 8), ("32", 2, 16))
            ),
            summary={"dbp_vs_ebp_ws_pct_at_8": ("8", "dbp ws", "8", "ebp ws")},
            notes="DBP's edge over EBP should shrink as banks become plentiful",
        ),
        Experiment(
            "F7",
            "F7 (sensitivity): core count (2 / 4 / 8).",
            title="DBP vs EBP across core counts (gmean over that size's mixes)",
            columns=("cores", "ebp ws", "dbp ws", "ebp ms", "dbp ms"),
            rows=(
                Row("2", ("ebp", "dbp"), mixes=[m.name for m in mixes_for_cores(2)]),
                Row("4", ("ebp", "dbp"), mixes=FAST_MIXES),
                Row("8", ("ebp", "dbp"), mixes=[m.name for m in mixes_for_cores(8)]),
            ),
        ),
        Experiment(
            "F8",
            "F8 (sensitivity): DBP repartitioning epoch length.",
            title="DBP sensitivity to epoch length (gmean over mixes)",
            columns=("epoch", "ws", "ms"),
            mixes=FAST_MIXES,
            rows=_epoch_rows,
        ),
        _hand_written("F9", f9_ablation, mixes=FAST_MIXES),
        # Bank partitioning's benefit comes from protecting row-buffer
        # locality; a closed-page controller gives that locality up
        # voluntarily, so the open/closed comparison bounds how much of the
        # policy story depends on the row-management assumption.
        Experiment(
            "F10",
            "F10 (extension): open-page vs closed-page row management.",
            title="Page policy: open vs closed rows (gmean over mixes)",
            columns=("page policy", "shared ws", "dbp ws", "shared ms", "dbp ms"),
            mixes=FAST_MIXES,
            rows=tuple(
                Row(
                    policy,
                    ("shared-frfcfs", "dbp"),
                    config={"controller": {"page_policy": policy}},
                )
                for policy in ("open", "closed")
            ),
        ),
        # The paper family evaluates without prefetchers. Turning one on
        # multiplies streaming threads' outstanding requests — and therefore
        # their bank footprint and bus share — which stresses both the
        # interference the partitioners remove and the BLP they must keep.
        Experiment(
            "F11",
            "F11 (extension): how stride prefetching changes the picture.",
            title="Stride prefetching off/on (gmean over mixes)",
            columns=(
                "prefetch",
                "shared ws", "ebp ws", "dbp ws",
                "shared ms", "ebp ms", "dbp ms",
            ),
            mixes=FAST_MIXES,
            rows=tuple(
                Row(
                    label,
                    _C1,
                    config={
                        "prefetcher": PrefetcherConfig(
                            enabled=enabled, degree=2, distance=4
                        )
                    },
                )
                for label, enabled in (("off", False), ("on", True))
            ),
            summary={
                "prefetch_shared_ws_pct": ("on", "shared ws", "off", "shared ws"),
            },
        ),
        # Permutation-based interleaving spreads row-conflict hotspots over
        # all banks in hardware; DBP removes inter-thread conflicts in
        # software. XOR mainly recovers throughput lost to pathological bank
        # collisions, partitioning mainly recovers fairness lost to
        # inter-thread interference.
        Experiment(
            "F12",
            "F12 (extension): XOR bank permutation vs software partitioning.",
            title="XOR bank interleaving vs partitioning (gmean over mixes)",
            columns=("approach", "ws", "ms"),
            mixes=FAST_MIXES,
            rows=(
                Row("shared", ("shared-frfcfs",)),
                Row("dbp", ("dbp",)),
                Row(
                    "shared+xor",
                    ("shared-frfcfs",),
                    config={"bank_xor_interleave": True},
                ),
            ),
            notes=(
                "XOR interleaving defeats page coloring, so partitioned "
                "approaches are not defined on that mapping"
            ),
        ),
        # The synthetic traces are stochastic; a claim that only holds for
        # one seed would be an artifact. Each row regenerates every trace
        # and every alone-run baseline from scratch.
        Experiment(
            "F13",
            "F13 (robustness): claim C1 across workload-generation seeds.",
            title="DBP vs EBP across trace seeds (gmean over mixes)",
            columns=(
                "seed", "ebp ws", "dbp ws", "ebp ms", "dbp ms", "C1 ws %", "C1 ms %",
            ),
            mixes=FAST_MIXES,
            rows=_seed_rows,
            row_deltas=(("dbp ws", "ebp ws"), ("dbp ms", "ebp ms")),
            summary={
                "min_ws_delta_pct": lambda result: min(result.column("C1 ws %")),
                "max_ms_delta_pct": lambda result: max(result.column("C1 ms %")),
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# Running an entry.
# ---------------------------------------------------------------------------
def _scoped_runner(base: Runner, row: Row) -> Runner:
    """The base Runner, or one sharing its scope but the row's config/seed.

    Jobs and the persistent store carry over, so sensitivity rows
    parallelize and resume exactly like the main grid.
    """
    if not row.config and row.seed is None:
        return base
    fields = {
        name: replace(getattr(base.config, name), **value)
        if isinstance(value, dict)
        else value
        for name, value in row.config.items()
    }
    scope = scope_of(base)
    if row.seed is not None:
        scope["seed"] = row.seed
    return Runner(
        config=replace(base.config, **fields),
        store=base.store,
        jobs=base.jobs,
        **scope,
    )


def _run_grid(
    experiment: Experiment,
    runner: Runner,
    mixes: Optional[Sequence[str]] = None,
    **axis,
) -> ExperimentResult:
    """Run a grid entry through the campaign sweep path.

    Rows on one Runner and mix scope share one sweep, so with
    ``runner.jobs > 1`` all of its cells fan out at once and with a
    ``runner.store`` attached they persist across invocations.
    """
    from ..campaign.api import sweep_metrics

    if callable(experiment.rows):
        rows = experiment.rows(**axis)
    elif axis:
        raise ExperimentError(
            f"experiment {experiment.exp_id} takes no {', '.join(axis)} scope"
        )
    else:
        rows = experiment.rows
    cells = [(_scoped_runner(runner, row), tuple(row.mixes or mixes)) for row in rows]
    grids: Dict[tuple, List[str]] = {}
    for cell, row in zip(cells, rows):
        approaches = grids.setdefault(cell, [])
        approaches.extend(a for a in row.approaches if a not in approaches)
    sweeps = {
        cell: sweep_metrics(*cell, approaches) for cell, approaches in grids.items()
    }
    columns = list(experiment.columns)
    result = ExperimentResult(
        experiment.exp_id, experiment.title, columns, notes=experiment.notes
    )
    for cell, row in zip(cells, rows):
        data = sweeps[cell]
        if experiment.per_mix:
            series = [data[a][experiment.metrics[0]] for a in row.approaches]
            for index, mix_name in enumerate(mixes):
                result.rows.append([mix_name] + [s[index] for s in series])
        values = [row.label] + [
            _gmean_or_nan(data[a][metric])
            for metric in experiment.metrics
            for a in row.approaches
        ]
        for new, base in experiment.row_deltas:
            values.append(
                percent_delta(values[columns.index(new)], values[columns.index(base)])
            )
        result.rows.append(values)
    labels = [values[0] for values in result.rows]
    for name, summary in experiment.summary.items():
        if callable(summary):
            result.summary[name] = summary(result)
            continue
        row, column, base_row, base_column = summary
        result.summary[name] = percent_delta(
            result.rows[labels.index(row)][columns.index(column)],
            result.rows[labels.index(base_row)][columns.index(base_column)],
        )
    return result


def run_experiment(
    exp_id: str, runner: Optional[Runner] = None, **scope
) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`).

    ``scope`` narrows what runs without changing what it means: ``mixes``
    for every entry with a mix scope, ``epochs`` for F8, ``seeds`` for F13,
    ``apps`` and ``bank_counts`` for F1 and ``apps`` for T2.
    """
    experiment = EXPERIMENTS.get(exp_id.upper())
    if experiment is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {exp_id!r}; known: {known}")
    mixes = scope.pop("mixes", None)
    if experiment.mixes is not None:
        scope["mixes"] = list(mixes) if mixes is not None else list(experiment.mixes)
    elif mixes is not None:
        raise ExperimentError(f"experiment {experiment.exp_id} takes no mix scope")
    runner = runner if runner is not None else Runner()
    if experiment.run is not None:
        return experiment.run(runner, **scope)
    return _run_grid(experiment, runner, **scope)
