"""The reconstructed evaluation: one function per table/figure.

Scope arguments (``mixes``, ``horizon`` via the Runner) let the benches and
the CLI trade coverage for time without changing what each experiment
means. See DESIGN.md's per-experiment index for the mapping to the paper's
claims.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines.fixed import FixedAllocationPolicy
from ..config import PrefetcherConfig, SystemConfig
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


def _default_runner(runner: Optional[Runner]) -> Runner:
    return runner if runner is not None else Runner()


def _gmean_or_nan(values: Sequence[float]) -> float:
    return geometric_mean(values) if values else float("nan")


def _metric_sweep(
    runner: Runner, mixes: Sequence[str], approaches: Sequence[str]
) -> Dict[str, Dict[str, object]]:
    """Run mixes x approaches; returns per-approach WS/MS lists.

    Delegates to the campaign subsystem: with ``runner.jobs > 1`` the grid
    fans out over worker processes, and with a ``runner.store`` attached
    results persist across invocations. At ``jobs=1`` with no store this
    is exactly the historical serial loop.
    """
    from ..campaign.api import sweep_metrics

    return sweep_metrics(runner, mixes, approaches)


def _sweep_result(
    exp_id: str,
    title: str,
    metric: str,
    runner: Runner,
    mixes: Sequence[str],
    approaches: Sequence[str],
) -> ExperimentResult:
    data = _metric_sweep(runner, mixes, approaches)
    result = ExperimentResult(
        exp_id=exp_id,
        title=title,
        columns=["mix"] + list(approaches),
    )
    for index, mix_name in enumerate(mixes):
        result.rows.append(
            [mix_name] + [data[a][metric][index] for a in approaches]
        )
    result.rows.append(
        ["gmean"] + [_gmean_or_nan(data[a][metric]) for a in approaches]
    )
    return result


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------
def t1_configuration(runner: Optional[Runner] = None) -> ExperimentResult:
    """T1: the simulated system configuration."""
    runner = _default_runner(runner)
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
    runner: Optional[Runner] = None, apps: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """T2: measured alone-run characteristics of every application."""
    runner = _default_runner(runner)
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


def t3_mixes(runner: Optional[Runner] = None) -> ExperimentResult:
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


# ---------------------------------------------------------------------------
# Figures.
# ---------------------------------------------------------------------------
def f1_bank_sensitivity(
    runner: Optional[Runner] = None,
    apps: Optional[Sequence[str]] = None,
    bank_counts: Sequence[int] = (1, 2, 4, 8),
) -> ExperimentResult:
    """F1 (motivation): single-thread IPC versus banks available.

    High-BLP, low-locality applications (mcf-like) lose IPC sharply when
    confined to few bank colors; streaming applications are nearly flat.
    This is the bank-level-parallelism loss equal partitioning inflicts and
    DBP exists to avoid.
    """
    runner = _default_runner(runner)
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


def f2_ws_dbp_vs_ebp(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F2: weighted speedup — Shared(FR-FCFS) vs EBP vs DBP (claim C1)."""
    runner = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(MAIN_MIXES)
    approaches = ["shared-frfcfs", "ebp", "dbp"]
    result = _sweep_result(
        "F2", "Weighted speedup per mix", "ws", runner, mixes, approaches
    )
    gmeans = result.rows[-1]
    result.summary["dbp_vs_ebp_ws_pct"] = percent_delta(gmeans[3], gmeans[2])
    result.summary["dbp_vs_shared_ws_pct"] = percent_delta(gmeans[3], gmeans[1])
    result.notes = "paper claim C1: DBP improves WS over EBP by ~4.3%"
    return result


def f3_ms_dbp_vs_ebp(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F3: maximum slowdown — Shared(FR-FCFS) vs EBP vs DBP (claim C1)."""
    runner = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(MAIN_MIXES)
    approaches = ["shared-frfcfs", "ebp", "dbp"]
    result = _sweep_result(
        "F3",
        "Maximum slowdown per mix (lower is fairer)",
        "ms",
        runner,
        mixes,
        approaches,
    )
    gmeans = result.rows[-1]
    result.summary["dbp_vs_ebp_ms_pct"] = percent_delta(gmeans[3], gmeans[2])
    result.summary["dbp_vs_shared_ms_pct"] = percent_delta(gmeans[3], gmeans[1])
    result.notes = "paper claim C1: DBP improves fairness over EBP by ~16%"
    return result


def f4_dbp_tcm(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F4: TCM vs MCP vs EBP-TCM vs DBP-TCM (claims C2 and C3)."""
    runner = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(MAIN_MIXES)
    approaches = ["tcm", "mcp", "ebp-tcm", "dbp-tcm"]
    data = _metric_sweep(runner, mixes, approaches)
    result = ExperimentResult(
        exp_id="F4",
        title="Scheduling x partitioning: WS and MS (gmean over mixes)",
        columns=["approach", "ws", "ms", "hs"],
    )
    for approach in approaches:
        result.rows.append(
            [
                approach,
                _gmean_or_nan(data[approach]["ws"]),
                _gmean_or_nan(data[approach]["ms"]),
                _gmean_or_nan(data[approach]["hs"]),
            ]
        )
    ws = {row[0]: row[1] for row in result.rows}
    ms = {row[0]: row[2] for row in result.rows}
    result.summary["dbptcm_vs_tcm_ws_pct"] = percent_delta(ws["dbp-tcm"], ws["tcm"])
    result.summary["dbptcm_vs_tcm_ms_pct"] = percent_delta(ms["dbp-tcm"], ms["tcm"])
    result.summary["dbptcm_vs_mcp_ws_pct"] = percent_delta(ws["dbp-tcm"], ws["mcp"])
    result.summary["dbptcm_vs_mcp_ms_pct"] = percent_delta(ms["dbp-tcm"], ms["mcp"])
    result.notes = (
        "paper claims C2/C3: DBP-TCM over TCM +6.2% WS / +16.7% fairness; "
        "over MCP +5.3% WS / +37% fairness"
    )
    return result


def f5_schedulers(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F5 (context): the six memory schedulers, unpartitioned."""
    runner = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    approaches = ["shared-fcfs", "shared-frfcfs", "parbs", "atlas", "bliss", "tcm"]
    data = _metric_sweep(runner, mixes, approaches)
    result = ExperimentResult(
        exp_id="F5",
        title="Memory schedulers without partitioning (gmean over mixes)",
        columns=["scheduler", "ws", "ms", "hs"],
    )
    for approach in approaches:
        result.rows.append(
            [
                approach,
                _gmean_or_nan(data[approach]["ws"]),
                _gmean_or_nan(data[approach]["ms"]),
                _gmean_or_nan(data[approach]["hs"]),
            ]
        )
    ws = {row[0]: row[1] for row in result.rows}
    result.summary["frfcfs_vs_fcfs_ws_pct"] = percent_delta(
        ws["shared-frfcfs"], ws["shared-fcfs"]
    )
    return result


def f6_banks_sweep(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F6 (sensitivity): bank colors per channel (8 / 16 / 32)."""
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    organizations = [
        ("8", replace(base.config.organization, ranks_per_channel=1, banks_per_rank=8)),
        ("16", replace(base.config.organization, ranks_per_channel=2, banks_per_rank=8)),
        ("32", replace(base.config.organization, ranks_per_channel=2, banks_per_rank=16)),
    ]
    result = ExperimentResult(
        exp_id="F6",
        title="DBP vs EBP across bank-color counts (gmean over mixes)",
        columns=["colors", "ebp ws", "dbp ws", "ebp ms", "dbp ms"],
    )
    for label, organization in organizations:
        sub = _sub_runner(base, replace(base.config, organization=organization))
        data = _metric_sweep(sub, mixes, ["ebp", "dbp"])
        result.rows.append(
            [
                label,
                _gmean_or_nan(data["ebp"]["ws"]),
                _gmean_or_nan(data["dbp"]["ws"]),
                _gmean_or_nan(data["ebp"]["ms"]),
                _gmean_or_nan(data["dbp"]["ms"]),
            ]
        )
    first = result.rows[0]
    result.summary["dbp_vs_ebp_ws_pct_at_8"] = percent_delta(first[2], first[1])
    result.notes = (
        "DBP's edge over EBP should shrink as banks become plentiful"
    )
    return result


def f7_cores_sweep(runner: Optional[Runner] = None) -> ExperimentResult:
    """F7 (sensitivity): core count (2 / 4 / 8)."""
    base = _default_runner(runner)
    result = ExperimentResult(
        exp_id="F7",
        title="DBP vs EBP across core counts (gmean over that size's mixes)",
        columns=["cores", "ebp ws", "dbp ws", "ebp ms", "dbp ms"],
    )
    for cores in (2, 4, 8):
        mixes = [m.name for m in mixes_for_cores(cores)]
        if cores == 4:
            mixes = list(FAST_MIXES)
        if not mixes:
            raise ExperimentError(f"no mixes defined for {cores} cores")
        data = _metric_sweep(base, mixes, ["ebp", "dbp"])
        result.rows.append(
            [
                str(cores),
                _gmean_or_nan(data["ebp"]["ws"]),
                _gmean_or_nan(data["dbp"]["ws"]),
                _gmean_or_nan(data["ebp"]["ms"]),
                _gmean_or_nan(data["dbp"]["ms"]),
            ]
        )
    return result


def f8_epoch_sweep(
    runner: Optional[Runner] = None,
    mixes: Optional[Sequence[str]] = None,
    epochs: Sequence[int] = (10_000, 25_000, 50_000, 100_000),
) -> ExperimentResult:
    """F8 (sensitivity): DBP repartitioning epoch length."""
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    result = ExperimentResult(
        exp_id="F8",
        title="DBP sensitivity to epoch length (gmean over mixes)",
        columns=["epoch", "ws", "ms"],
    )
    for epoch in epochs:
        ws, ms = [], []
        for mix_name in mixes:
            mix = get_mix(mix_name)
            policy = DynamicBankPartitioning(DBPConfig(epoch_cycles=epoch))
            metrics = base.run_custom(
                list(mix.apps),
                policy,
                label=f"dbp@{epoch}",
                mix_name=mix.name,
            ).metrics
            ws.append(metrics.weighted_speedup)
            ms.append(metrics.max_slowdown)
        result.rows.append([str(epoch), _gmean_or_nan(ws), _gmean_or_nan(ms)])
    return result


def f9_ablation(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F9 (ablation): demand-estimator ingredients.

    Variants: the full estimator; BLP-only (no streaming deduction);
    MPKI-proportional (strawman); full but without pooling non-intensive
    threads.
    """
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    variants = [
        ("full", DBPConfig()),
        ("blp-only", DBPConfig(demand=DemandConfig(mode="blp"))),
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
            metrics = base.run_custom(
                list(mix.apps),
                policy,
                label=f"dbp-{label}",
                mix_name=mix.name,
            ).metrics
            ws.append(metrics.weighted_speedup)
            ms.append(metrics.max_slowdown)
        result.rows.append([label, _gmean_or_nan(ws), _gmean_or_nan(ms)])
    return result


def _sub_runner(
    base: Runner, config: SystemConfig, seed: Optional[int] = None
) -> Runner:
    """A Runner sharing the base's scope but a different config or seed.

    Jobs and the persistent store carry over, so sensitivity sweeps built
    from sub-runners parallelize and resume exactly like the main grid.
    """
    return Runner(
        config=config,
        horizon=base.horizon,
        seed=base.seed if seed is None else seed,
        target_insts=base.target_insts,
        validate=base.validate,
        ahead_limit=base.ahead_limit,
        store=base.store,
        jobs=base.jobs,
    )


def f10_page_policy(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F10 (extension): open-page vs closed-page row management.

    Bank partitioning's benefit comes from protecting row-buffer locality;
    a closed-page controller gives that locality up voluntarily, so the
    open/closed comparison bounds how much of the policy story depends on
    the row-management assumption.
    """
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    result = ExperimentResult(
        exp_id="F10",
        title="Page policy: open vs closed rows (gmean over mixes)",
        columns=["page policy", "shared ws", "dbp ws", "shared ms", "dbp ms"],
    )
    for policy_name in ("open", "closed"):
        controller = replace(
            base.config.controller, page_policy=policy_name
        )
        sub = _sub_runner(base, replace(base.config, controller=controller))
        data = _metric_sweep(sub, mixes, ["shared-frfcfs", "dbp"])
        result.rows.append(
            [
                policy_name,
                _gmean_or_nan(data["shared-frfcfs"]["ws"]),
                _gmean_or_nan(data["dbp"]["ws"]),
                _gmean_or_nan(data["shared-frfcfs"]["ms"]),
                _gmean_or_nan(data["dbp"]["ms"]),
            ]
        )
    return result


def f11_prefetching(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F11 (extension): how stride prefetching changes the picture.

    The paper family evaluates without prefetchers. Turning one on
    multiplies streaming threads' outstanding requests — and therefore
    their bank footprint and bus share — which stresses both the
    interference the partitioners remove and the BLP they must preserve.
    """
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    result = ExperimentResult(
        exp_id="F11",
        title="Stride prefetching off/on (gmean over mixes)",
        columns=[
            "prefetch",
            "shared ws",
            "ebp ws",
            "dbp ws",
            "shared ms",
            "ebp ms",
            "dbp ms",
        ],
    )
    for enabled in (False, True):
        prefetcher = PrefetcherConfig(enabled=enabled, degree=2, distance=4)
        sub = _sub_runner(base, replace(base.config, prefetcher=prefetcher))
        data = _metric_sweep(sub, mixes, ["shared-frfcfs", "ebp", "dbp"])
        result.rows.append(
            [
                "on" if enabled else "off",
                _gmean_or_nan(data["shared-frfcfs"]["ws"]),
                _gmean_or_nan(data["ebp"]["ws"]),
                _gmean_or_nan(data["dbp"]["ws"]),
                _gmean_or_nan(data["shared-frfcfs"]["ms"]),
                _gmean_or_nan(data["ebp"]["ms"]),
                _gmean_or_nan(data["dbp"]["ms"]),
            ]
        )
    off, on = result.rows
    result.summary["prefetch_shared_ws_pct"] = percent_delta(on[1], off[1])
    return result


def f12_xor_interleaving(
    runner: Optional[Runner] = None, mixes: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """F12 (extension): XOR bank permutation vs software partitioning.

    Permutation-based interleaving spreads row-conflict hotspots over all
    banks in hardware; DBP removes inter-thread conflicts in software. The
    comparison shows where each helps: XOR mainly recovers throughput lost
    to pathological bank collisions, partitioning mainly recovers fairness
    lost to inter-thread interference.
    """
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    result = ExperimentResult(
        exp_id="F12",
        title="XOR bank interleaving vs partitioning (gmean over mixes)",
        columns=["approach", "ws", "ms"],
    )
    # Plain shared and DBP on the normal mapping...
    data = _metric_sweep(base, mixes, ["shared-frfcfs", "dbp"])
    result.rows.append(
        [
            "shared",
            _gmean_or_nan(data["shared-frfcfs"]["ws"]),
            _gmean_or_nan(data["shared-frfcfs"]["ms"]),
        ]
    )
    result.rows.append(
        ["dbp", _gmean_or_nan(data["dbp"]["ws"]), _gmean_or_nan(data["dbp"]["ms"])]
    )
    # ...versus shared on the XOR-permuted mapping.
    xor_runner = _sub_runner(
        base, replace(base.config, bank_xor_interleave=True)
    )
    xor_data = _metric_sweep(xor_runner, mixes, ["shared-frfcfs"])
    result.rows.append(
        [
            "shared+xor",
            _gmean_or_nan(xor_data["shared-frfcfs"]["ws"]),
            _gmean_or_nan(xor_data["shared-frfcfs"]["ms"]),
        ]
    )
    result.notes = (
        "XOR interleaving defeats page coloring, so partitioned approaches "
        "are not defined on that mapping"
    )
    return result


def f13_seed_robustness(
    runner: Optional[Runner] = None,
    mixes: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1, 2, 3),
) -> ExperimentResult:
    """F13 (robustness): claim C1 across workload-generation seeds.

    The synthetic traces are stochastic; a claim that only holds for one
    seed would be an artifact. Each row regenerates every trace and every
    alone-run baseline from scratch.
    """
    base = _default_runner(runner)
    mixes = list(mixes) if mixes is not None else list(FAST_MIXES)
    result = ExperimentResult(
        exp_id="F13",
        title="DBP vs EBP across trace seeds (gmean over mixes)",
        columns=["seed", "ebp ws", "dbp ws", "ebp ms", "dbp ms", "C1 ws %", "C1 ms %"],
    )
    for seed in seeds:
        sub = _sub_runner(base, base.config, seed=seed)
        data = _metric_sweep(sub, mixes, ["ebp", "dbp"])
        ebp_ws = _gmean_or_nan(data["ebp"]["ws"])
        dbp_ws = _gmean_or_nan(data["dbp"]["ws"])
        ebp_ms = _gmean_or_nan(data["ebp"]["ms"])
        dbp_ms = _gmean_or_nan(data["dbp"]["ms"])
        result.rows.append(
            [
                str(seed),
                ebp_ws,
                dbp_ws,
                ebp_ms,
                dbp_ms,
                percent_delta(dbp_ws, ebp_ws),
                percent_delta(dbp_ms, ebp_ms),
            ]
        )
    ws_deltas = [row[5] for row in result.rows]
    ms_deltas = [row[6] for row in result.rows]
    result.summary["min_ws_delta_pct"] = min(ws_deltas)
    result.summary["max_ms_delta_pct"] = max(ms_deltas)
    return result


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "T1": t1_configuration,
    "T2": t2_characteristics,
    "T3": t3_mixes,
    "F1": f1_bank_sensitivity,
    "F2": f2_ws_dbp_vs_ebp,
    "F3": f3_ms_dbp_vs_ebp,
    "F4": f4_dbp_tcm,
    "F5": f5_schedulers,
    "F6": f6_banks_sweep,
    "F7": f7_cores_sweep,
    "F8": f8_epoch_sweep,
    "F9": f9_ablation,
    "F10": f10_page_policy,
    "F11": f11_prefetching,
    "F12": f12_xor_interleaving,
    "F13": f13_seed_robustness,
}


def run_experiment(
    exp_id: str, runner: Optional[Runner] = None, **kwargs
) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    key = exp_id.upper()
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {exp_id!r}; known: {known}")
    return EXPERIMENTS[key](runner, **kwargs)
