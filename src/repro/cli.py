"""Command-line interface: ``repro-dbp`` (or ``python -m repro``).

Subcommands:

* ``list``     — experiments, approaches, applications, mixes;
  ``--tunables`` adds each approach's declared parameter space.
* ``run``      — run one experiment by id and print its table; ``--jobs``
  fans its sweeps out over worker processes.
* ``campaign`` — run a (mix x approach x seed) grid in parallel, backed by
  the persistent result store (re-runs are served from disk); ``--gates``
  evaluates the paper-claim acceptance gates over the finished grid and
  sets the exit code.
* ``results``  — the result service over the store: ``results index``
  syncs the SQLite index from the blobs, ``results query`` filters runs
  and derived views (rollups, pair deltas, intensity breakdowns),
  ``results compare`` A/B-diffs two campaigns or store snapshots, and
  ``results gates`` evaluates the C1-C3 acceptance gates (or a custom
  JSON gates file) with a machine-readable report, and ``results
  perf-trend`` ingests ``benchmarks/BENCH_*.json`` trajectories into the
  index and flags perf regressions (the perf-observatory CI hook).
* ``store``    — blob-store maintenance: ``store stats`` (entries, alone
  records, bytes, quarantine and index state), ``store ls`` (entries or
  quarantined files), ``store gc`` (prune quarantined/tmp/stale files).
* ``tune``     — auto-tuning over the declared parameter spaces:
  ``tune run`` drives a seeded search strategy (random | halving | tpe)
  with the campaign grid as the objective (every simulation lands in the
  content-addressed store, so repeated points are cache hits and
  re-running a study is nearly free), ``tune report`` lists recorded
  studies and their trials, ``tune frontier`` renders the WS-vs-MS
  Pareto frontier of tuned points against the paper default with an
  explicit dominance verdict.
* ``mix``      — run a single mix under one or more approaches.
* ``trace``    — run one mix with per-epoch telemetry and print the epoch
  timeline and the policy's decisions table (optionally export or stream
  JSONL); ``--from-jsonl`` renders a stored stream without re-simulating.
* ``metrics``  — run one mix and print the simulator-wide metrics registry
  snapshot in Prometheus text (or JSON) form.
* ``perf``     — run one mix with profiling and print the wall-clock
  component profile plus the fast-kernel introspection counters (wake-memo
  short-circuit ratio, best-memo hit rate, scan lengths, cas-floor reuse).
* ``traces``   — the workload trace library: ``traces import`` parses an
  external ChampSim/DRAMSim-style dump (or ``.rtrc``), characterizes it
  alone, and registers it as a first-class app; ``traces list`` / ``info``
  / ``export`` browse and extract the catalogue. ``traces APP...`` (legacy
  form) analyzes generated traces.
* ``config``   — print the simulated system configuration.

Anywhere a mix name is accepted, an ad-hoc ``app1+app2`` spec works too —
including library-trace names — so an imported real trace can be run
against synthetic apps without editing the mix table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .core.integration import APPROACHES
from .errors import ReproError
from .experiments import EXPERIMENTS, run_experiment
from .sim.runner import Runner
from .workloads import MIXES, resolve_mix
from .workloads.mixes import MAIN_MIXES
from .workloads.profiles import APP_PROFILES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dbp",
        description=(
            "Dynamic Bank Partitioning (HPCA 2014) reproduction: run the "
            "reconstructed tables and figures or individual workload mixes."
        ),
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=400_000,
        help="simulated CPU cycles per run (default 400000)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload generation seed"
    )
    parser.add_argument(
        "--kernel",
        choices=("fast", "reference"),
        default=None,
        help=(
            "controller hot-loop implementation (default: REPRO_KERNEL env "
            "or 'fast'); results are bit-identical either way"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list experiments, approaches, apps, mixes"
    )
    list_parser.add_argument(
        "--tunables",
        action="store_true",
        help="also print each approach's declared tunable-parameter space",
    )
    sub.add_parser("config", help="print the system configuration")

    run_parser = sub.add_parser("run", help="run one experiment by id")
    run_parser.add_argument("experiment", help="experiment id, e.g. F2")
    run_parser.add_argument(
        "--mixes",
        nargs="*",
        default=None,
        help="restrict sweep experiments to these mixes",
    )
    run_parser.add_argument(
        "--format",
        choices=["table", "csv", "json"],
        default="table",
        help="output format (default: table)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (default 1 = serial)",
    )
    run_parser.add_argument(
        "--store",
        nargs="?",
        const="auto",
        default=None,
        metavar="DIR",
        help=(
            "persist runs to the content-addressed result store "
            "(default location when DIR omitted)"
        ),
    )

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a mix x approach x seed grid in parallel, resumably",
    )
    campaign_parser.add_argument(
        "--mixes",
        nargs="*",
        default=None,
        help=f"mix names (default: the main evaluation set {list(MAIN_MIXES)})",
    )
    campaign_parser.add_argument(
        "--approaches",
        nargs="*",
        default=None,
        help="approach names (default: shared-frfcfs ebp dbp — the F2/F3 grid)",
    )
    campaign_parser.add_argument(
        "--seeds",
        nargs="*",
        type=int,
        default=None,
        help="workload seeds (default: the global --seed)",
    )
    campaign_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    campaign_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts for a failed/crashed run (default 1)",
    )
    campaign_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run timeout in seconds (default: none)",
    )
    campaign_parser.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        help="base of the exponential retry backoff in seconds (default 0.25)",
    )
    campaign_parser.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        help=(
            "deterministic failures before a spec is quarantined instead "
            "of retried (default 2)"
        ),
    )
    campaign_parser.add_argument(
        "--safepoint-every",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "checkpoint running simulations every CYCLES cycles so a "
            "killed or timed-out run resumes from its last safepoint"
        ),
    )
    campaign_parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help=(
            "inject the deterministic fault plan into every worker "
            "(chaos testing; see repro.faults)"
        ),
    )
    campaign_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result store directory (default: benchmarks/results/store)",
    )
    campaign_parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the persistent store",
    )
    campaign_parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )
    campaign_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-run progress lines on stderr",
    )
    campaign_parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record per-epoch telemetry and attach summaries to the store",
    )
    campaign_parser.add_argument(
        "--gates",
        action="store_true",
        help=(
            "evaluate the paper-claim acceptance gates (C1-C3) over the "
            "finished campaign; a failed gate fails the command"
        ),
    )
    campaign_parser.add_argument(
        "--gates-claims",
        nargs="*",
        default=None,
        metavar="CLAIM",
        help="restrict --gates to these claim ids (e.g. C1)",
    )
    campaign_parser.add_argument(
        "--spans",
        default=None,
        metavar="PATH",
        help=(
            "write a merged Chrome-trace span timeline (supervisor + all "
            "workers) to PATH; open it in Perfetto or chrome://tracing"
        ),
    )

    results_parser = sub.add_parser(
        "results",
        help="result service: index | query | compare | gates",
    )
    results_sub = results_parser.add_subparsers(
        dest="results_verb", required=True
    )

    def _add_index_source(p, with_db: bool = True) -> None:
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="store directory (default: benchmarks/results/store)",
        )
        if with_db:
            p.add_argument(
                "--db",
                default=None,
                metavar="PATH",
                help=(
                    "SQLite index file (default: index.sqlite inside the "
                    "store directory)"
                ),
            )

    rindex = results_sub.add_parser(
        "index", help="sync the SQLite index from the blob store"
    )
    _add_index_source(rindex)
    rindex.add_argument(
        "--no-prune",
        action="store_true",
        help="keep index rows whose blob entry disappeared",
    )

    rquery = results_sub.add_parser(
        "query", help="query indexed runs and derived views"
    )
    _add_index_source(rquery)
    rquery.add_argument(
        "--view",
        choices=["runs", "rollup", "deltas", "intensity"],
        default="runs",
        help="what to show (default: runs)",
    )
    rquery.add_argument(
        "--pair",
        nargs=2,
        default=None,
        metavar=("BETTER", "BASELINE"),
        help="approach pair for --view deltas (e.g. dbp ebp)",
    )
    rquery.add_argument("--mix", default=None, help="filter: mix name")
    rquery.add_argument(
        "--approach", default=None, help="filter: approach name"
    )
    rquery.add_argument(
        "--run-seed", type=int, default=None, help="filter: workload seed"
    )
    rquery.add_argument(
        "--run-horizon", type=int, default=None, help="filter: horizon"
    )
    rquery.add_argument(
        "--all-versions",
        action="store_true",
        help="include rows from other STORE_VERSIONs",
    )
    rquery.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    rcompare = results_sub.add_parser(
        "compare",
        help="A/B diff two campaigns (index files or store directories)",
    )
    rcompare.add_argument(
        "side_a", metavar="A", help="index.sqlite file or store directory"
    )
    rcompare.add_argument(
        "side_b", metavar="B", help="index.sqlite file or store directory"
    )
    rcompare.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        metavar="PCT",
        help="metric-delta tolerance in percent (default 0.5)",
    )
    rcompare.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any run regressed beyond tolerance",
    )
    rcompare.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    rtrend = results_sub.add_parser(
        "perf-trend",
        help=(
            "ingest benchmarks/BENCH_*.json into the index and flag perf "
            "regressions"
        ),
    )
    _add_index_source(rtrend)
    rtrend.add_argument(
        "--bench-dir",
        default="benchmarks",
        metavar="DIR",
        help="directory holding BENCH_*.json snapshots (default: benchmarks)",
    )
    rtrend.add_argument(
        "--benchmark",
        default=None,
        help="show only this benchmark's trajectory",
    )
    rtrend.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help=(
            "allowed fractional throughput drop below the best earlier "
            "trajectory entry (default 0.10)"
        ),
    )
    rtrend.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any regression is flagged (the CI hook)",
    )
    rtrend.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    rgates = results_sub.add_parser(
        "gates", help="evaluate paper-claim acceptance gates"
    )
    _add_index_source(rgates)
    rgates.add_argument(
        "--claims",
        nargs="*",
        default=None,
        metavar="CLAIM",
        help="restrict to these claim ids (e.g. C1 C3; default: all)",
    )
    rgates.add_argument(
        "--gates-file",
        default=None,
        metavar="JSON",
        help="evaluate gates from a JSON file instead of the built-ins",
    )
    rgates.add_argument(
        "--run-seed", type=int, default=None, help="scope: workload seed"
    )
    rgates.add_argument(
        "--run-horizon", type=int, default=None, help="scope: horizon"
    )
    rgates.add_argument(
        "--strict",
        action="store_true",
        help="treat skipped gates (missing runs) as failures",
    )
    rgates.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the machine-readable JSON report to PATH",
    )
    rgates.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    store_parser = sub.add_parser(
        "store", help="blob-store maintenance: stats | ls | gc"
    )
    store_sub = store_parser.add_subparsers(dest="store_verb", required=True)
    sstats = store_sub.add_parser(
        "stats", help="entry/quarantine/index accounting for a store"
    )
    _add_index_source(sstats, with_db=False)
    sstats.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )
    sls = store_sub.add_parser("ls", help="list store entries")
    _add_index_source(sls, with_db=False)
    sls.add_argument(
        "--corrupt",
        action="store_true",
        help="list quarantined .corrupt files instead of entries",
    )
    sls.add_argument(
        "--limit",
        type=int,
        default=50,
        metavar="N",
        help="show at most N entries (default 50; 0 = no limit)",
    )
    sgc = store_sub.add_parser(
        "gc", help="prune quarantined and orphaned-tmp files"
    )
    _add_index_source(sgc, with_db=False)
    sgc.add_argument(
        "--stale",
        action="store_true",
        help="also delete entries and alone records written by another "
        "STORE_VERSION",
    )
    sgc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without deleting",
    )

    tune_parser = sub.add_parser(
        "tune",
        help="auto-tune policy parameters: run | report | frontier",
    )
    tune_sub = tune_parser.add_subparsers(dest="tune_verb", required=True)

    trun = tune_sub.add_parser(
        "run",
        help=(
            "run one seeded tuning study (full horizon = the global "
            "--horizon, seed = the global --seed)"
        ),
    )
    trun.add_argument(
        "--approach",
        default="dbp",
        help="base approach to tune (default: dbp)",
    )
    trun.add_argument(
        "--strategy",
        choices=["random", "halving", "tpe"],
        default="halving",
        help="search strategy (default: halving)",
    )
    trun.add_argument(
        "--budget",
        type=int,
        default=12,
        help="searched trials, excluding the free baseline (default 12)",
    )
    trun.add_argument(
        "--objective",
        choices=["balanced", "ws", "hs", "ms"],
        default="balanced",
        help="scalar objective over the mix set (default: balanced = WS/MS)",
    )
    trun.add_argument(
        "--mixes",
        nargs="*",
        default=None,
        help="mix names to score over (default: M4 M7)",
    )
    trun.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    trun.add_argument(
        "--study",
        default=None,
        help="study name (default: APPROACH-STRATEGY-OBJECTIVE-sSEED)",
    )
    trun.add_argument(
        "--screen-fidelity",
        type=float,
        default=None,
        metavar="FRACTION",
        help="halving: screening-rung horizon fraction (default 0.25)",
    )
    trun.add_argument(
        "--survivors",
        type=float,
        default=None,
        metavar="FRACTION",
        help="halving: fraction of the cohort promoted (default 0.25)",
    )
    trun.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts for a failed run (default 1)",
    )
    trun.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run timeout in seconds (default: none)",
    )
    _add_index_source(trun)
    trun.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-trial progress lines on stderr",
    )
    trun.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    treport = tune_sub.add_parser(
        "report", help="list recorded studies (or one study's trials)"
    )
    _add_index_source(treport)
    treport.add_argument(
        "--study", default=None, help="show this study's trials in full"
    )
    treport.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    tfrontier = tune_sub.add_parser(
        "frontier",
        help="WS-vs-MS Pareto frontier of a study vs the paper default",
    )
    _add_index_source(tfrontier)
    tfrontier.add_argument(
        "--study",
        default=None,
        help="study name (default: the only recorded study)",
    )
    tfrontier.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the machine-readable JSON frontier to PATH",
    )
    tfrontier.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="run one mix with telemetry; print epoch timeline + decisions",
    )
    trace_parser.add_argument(
        "mix",
        nargs="?",
        default=None,
        help="mix name, e.g. M4 (omit with --from-jsonl)",
    )
    trace_parser.add_argument(
        "--approach",
        default="dbp-tcm",
        help="approach to trace (default: dbp-tcm)",
    )
    trace_parser.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the newest N epochs in the timeline",
    )
    trace_parser.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also export every recorded epoch as JSON lines to PATH",
    )
    trace_parser.add_argument(
        "--stream",
        default=None,
        metavar="PATH",
        help=(
            "stream every epoch to a rotating JSONL file during the run "
            "(history beyond --capacity survives on disk)"
        ),
    )
    trace_parser.add_argument(
        "--from-jsonl",
        default=None,
        metavar="PATH",
        help=(
            "render the timeline and decisions from a stored telemetry "
            "stream instead of simulating"
        ),
    )
    trace_parser.add_argument(
        "--capacity",
        type=int,
        default=4096,
        help="telemetry ring-buffer capacity in epochs (default 4096)",
    )
    trace_parser.add_argument(
        "--profile",
        action="store_true",
        help="also print wall-clock profile (cycles/sec, per-component)",
    )
    trace_parser.add_argument(
        "--spans",
        default=None,
        metavar="PATH",
        help=(
            "record hierarchical wall-clock spans (run, phases, policy "
            "epochs, migration bursts) as Chrome trace events to PATH"
        ),
    )

    perf_parser = sub.add_parser(
        "perf",
        help=(
            "run one mix with profiling and print the wall-clock profile "
            "plus the fast-kernel introspection counters"
        ),
    )
    perf_parser.add_argument(
        "mix",
        nargs="?",
        default="M4",
        help="mix name (default: M4, the kernel-benchmark workload)",
    )
    perf_parser.add_argument(
        "--approach",
        default="dbp-tcm",
        help="approach to profile (default: dbp-tcm)",
    )
    perf_parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="run one mix and print the metrics-registry snapshot",
    )
    metrics_parser.add_argument("mix", help="mix name, e.g. M4")
    metrics_parser.add_argument(
        "--approach",
        default="dbp-tcm",
        help="approach to run (default: dbp-tcm)",
    )
    metrics_parser.add_argument(
        "--format",
        choices=["prom", "json"],
        default="prom",
        help="Prometheus text (default) or the raw snapshot as JSON",
    )

    mix_parser = sub.add_parser("mix", help="run one mix under approaches")
    mix_parser.add_argument("mix", help="mix name, e.g. M1")
    mix_parser.add_argument(
        "approaches",
        nargs="*",
        default=["shared-frfcfs", "ebp", "dbp"],
        help="approach names (default: shared-frfcfs ebp dbp)",
    )
    mix_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-clock profile after each approach",
    )

    traces_parser = sub.add_parser(
        "traces",
        help=(
            "trace library (import | list | info NAME | export NAME), "
            "or analyze generated traces: traces APP..."
        ),
    )
    traces_parser.add_argument(
        "apps",
        nargs="+",
        metavar="ARG",
        help=(
            "'import PATH', 'list', 'info NAME', 'export NAME', or "
            "application names to analyze (e.g. mcf libquantum)"
        ),
    )
    traces_parser.add_argument(
        "--library",
        default=None,
        metavar="DIR",
        help="trace library directory (default: benchmarks/traces/library)",
    )
    traces_parser.add_argument(
        "--name",
        default=None,
        help="import: register under this name (default: file basename)",
    )
    traces_parser.add_argument(
        "--format",
        dest="trace_format",
        choices=["auto", "champsim", "dramsim", "rtrc", "text"],
        default="auto",
        help="import: input trace format (default: auto-detect)",
    )
    traces_parser.add_argument(
        "--to",
        default=None,
        metavar="PATH",
        help="export: destination file (default: ./<name>.rtrc)",
    )
    traces_parser.add_argument(
        "--export-format",
        choices=["rtrc", "text"],
        default="rtrc",
        help="export: output format (default: rtrc)",
    )
    traces_parser.add_argument(
        "--no-characterize",
        action="store_true",
        help="import: skip the alone-run characterization pass",
    )
    traces_parser.add_argument(
        "--override",
        action="store_true",
        help="import: replace an existing library/registry entry",
    )

    gen_parser = sub.add_parser(
        "gen-traces", help="export generated traces to files"
    )
    gen_parser.add_argument("apps", nargs="+", help="application names")
    gen_parser.add_argument(
        "--out", default=".", help="output directory (default: cwd)"
    )
    gen_parser.add_argument(
        "--format",
        dest="trace_format",
        choices=["text", "rtrc"],
        default="text",
        help="output format (default: text; rtrc is the binary library form)",
    )
    return parser


def _cmd_list(args: Optional[argparse.Namespace] = None) -> int:
    print("experiments:")
    for exp_id in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[exp_id].__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:<3} {doc}")
    print("\napproaches:")
    for name in sorted(APPROACHES):
        print(f"  {name:<14} {APPROACHES[name].description}")
    if args is not None and getattr(args, "tunables", False):
        from .tuner.space import approach_space

        print("\ntunables (append @name=value,... to the approach name):")
        for name in sorted(APPROACHES):
            space = approach_space(name)
            if not len(space):
                print(f"  {name}: (no tunables)")
                continue
            print(f"  {name}:")
            for tunable in space.tunables:
                print(
                    f"    {tunable.name:<28} {tunable.kind:<6} "
                    f"{tunable.bounds_text():<24} "
                    f"default={tunable.default!r:<10} [{tunable.target}]"
                )
    print("\napplications:")
    for name in sorted(APP_PROFILES):
        profile = APP_PROFILES[name]
        print(
            f"  {name:<12} mpki={profile.mpki:<6} "
            f"rbh={profile.row_locality:<5} streams={profile.streams}"
        )
    print("\nmixes:")
    for name in sorted(MIXES, key=lambda n: (len(MIXES[n].apps), n)):
        mix = MIXES[name]
        print(f"  {mix.name:<4} [{mix.category:<5}] {' '.join(mix.apps)}")
    return 0


def _cmd_run(args: argparse.Namespace, runner: Runner) -> int:
    started = time.time()
    kwargs = {}
    exp = args.experiment.upper()
    if args.mixes and exp in (
        "F2", "F3", "F4", "F5", "F6", "F8", "F9", "F10", "F11", "F12", "F13",
    ):
        kwargs["mixes"] = args.mixes
    result = run_experiment(args.experiment, runner, **kwargs)
    if args.format == "csv":
        print(result.to_csv(), end="")
    elif args.format == "json":
        print(result.to_json())
    else:
        print(result.render())
        print(f"\n({time.time() - started:.1f}s simulated wall-clock)")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignSpec,
        ProgressPrinter,
        ResultStore,
        aggregate_telemetry,
        default_store_dir,
        render_report,
        run_campaign,
    )

    spec = CampaignSpec(
        mixes=tuple(args.mixes) if args.mixes else tuple(MAIN_MIXES),
        approaches=(
            tuple(args.approaches)
            if args.approaches
            else ("shared-frfcfs", "ebp", "dbp")
        ),
        seeds=tuple(args.seeds) if args.seeds else (args.seed,),
        horizons=(args.horizon,),
        telemetry=args.telemetry,
    )
    plan = spec.plan()
    store = None
    if not args.no_store:
        store = ResultStore(args.store if args.store else default_store_dir())
    progress = ProgressPrinter(
        total=len(plan), jobs=args.jobs, enabled=not args.quiet
    )
    faults = None
    if args.faults:
        from .faults import FaultPlan

        faults = FaultPlan.load(args.faults)
    result = run_campaign(
        plan,
        jobs=args.jobs,
        store=store,
        retries=args.retries,
        timeout=args.timeout,
        progress=progress,
        persist=not args.no_store,
        backoff=args.backoff,
        quarantine_after=args.quarantine_after,
        safepoint_every=args.safepoint_every,
        faults=faults,
        spans=args.spans,
    )
    if args.spans and not args.quiet:
        print(f"wrote merged span timeline to {args.spans}", file=sys.stderr)
    gates_report = None
    if args.gates:
        from .results import evaluate_gates, index_outcomes

        gates_report = evaluate_gates(
            index_outcomes(result.outcomes), claims=args.gates_claims
        )
    if args.format == "json":
        doc = {
            "runs": [
                {
                    "mix": o.spec.mix_name or "+".join(o.spec.apps),
                    "approach": o.spec.approach,
                    "seed": o.spec.seed,
                    "horizon": o.spec.horizon,
                    "status": o.status,
                    "attempts": o.attempts,
                    "wall_clock": o.wall_clock,
                    "error": o.error,
                    "failure": o.failure.to_doc() if o.failure else None,
                    "metrics": (
                        {
                            "ws": o.result.metrics.weighted_speedup,
                            "hs": o.result.metrics.harmonic_speedup,
                            "ms": o.result.metrics.max_slowdown,
                        }
                        if o.result is not None
                        else None
                    ),
                }
                for o in result.outcomes
            ],
            "summary": {
                "total": len(result.outcomes),
                "executed": len(result.executed),
                "cached": len(result.cached),
                "failed": len(result.failed),
                "quarantined": len(result.quarantined),
                "cache_hit_rate": result.cache_hit_rate,
                "wall_clock": result.wall_clock,
                "time_lost_to_faults": result.time_lost_to_faults,
                "pool_respawns": result.pool_respawns,
                "store": store.stats.as_dict() if store else None,
                "telemetry": aggregate_telemetry(result.outcomes),
            },
        }
        if gates_report is not None:
            doc["gates"] = gates_report.as_dict()
        print(json.dumps(doc, indent=2))
    else:
        print(render_report(result, store))
        if gates_report is not None:
            print("\nAcceptance gates:")
            print(gates_report.render())
    if gates_report is not None and not gates_report.ok():
        return 1
    return 1 if (result.failed or result.quarantined) else 0


def _print_profile(report: dict) -> None:
    """Render one :meth:`System.profile_report` dict for the terminal."""
    print(
        f"profile: {report['cycles']} cycles in "
        f"{report['wall_seconds']:.2f}s "
        f"({report['cycles_per_second']:,.0f} cycles/sec, "
        f"{report['events']} events)"
    )
    for row in report["components"]:
        print(
            f"  {row['component']:<20} {row['seconds']:>8.3f}s "
            f"{100.0 * row['share']:>5.1f}%  {row['events']:>9} events"
        )


def _cmd_mix(args: argparse.Namespace, runner: Runner) -> int:
    mix = resolve_mix(args.mix)
    print(f"{mix.name}: {' '.join(mix.apps)}  [{mix.category}]")
    header = f"{'approach':<14} {'WS':>7} {'HS':>7} {'MS':>7}  slowdowns"
    print(header)
    print("-" * len(header))
    for approach in args.approaches:
        metrics = runner.run_mix(mix, approach).metrics
        downs = " ".join(
            f"{mix.apps[t]}={s:.2f}" for t, s in metrics.slowdowns.items()
        )
        print(
            f"{approach:<14} {metrics.weighted_speedup:>7.3f} "
            f"{metrics.harmonic_speedup:>7.3f} "
            f"{metrics.max_slowdown:>7.3f}  {downs}"
        )
        if runner.profile and runner.last_profile is not None:
            _print_profile(runner.last_profile)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .errors import ConfigError
    from .telemetry import (
        TelemetryConfig,
        load_stream,
        render_decisions,
        render_timeline,
    )

    if args.from_jsonl is not None:
        if args.mix is not None:
            raise ConfigError(
                "trace --from-jsonl renders a stored stream; "
                "do not also name a mix"
            )
        stored = load_stream(args.from_jsonl)
        print(
            f"telemetry stream {stored.source} "
            f"({stored.segments} segment(s), schema capacity "
            f"{stored.config.capacity})"
        )
        print(
            f"epochs={stored.epochs} quanta={stored.quanta} "
            f"policy_epochs={stored.policy_epochs} "
            f"dropped_epochs={stored.dropped_epochs}"
        )
        print("\nEpoch timeline (Q = scheduler quantum, P = policy epoch):")
        print(render_timeline(stored, last=args.last))
        print("\nPolicy decisions:")
        print(render_decisions(stored))
        return 0
    if args.mix is None:
        raise ConfigError("trace needs a mix name (or --from-jsonl PATH)")
    mix = resolve_mix(args.mix)
    runner = Runner(
        horizon=args.horizon,
        seed=args.seed,
        telemetry=TelemetryConfig(
            capacity=args.capacity, stream_path=args.stream
        ),
        profile=args.profile,
        kernel=getattr(args, "kernel", None),
    )
    tracer = None
    previous_tracer = None
    if args.spans:
        from .telemetry import SpanTracer, install_tracer

        tracer = SpanTracer("repro-dbp trace")
        previous_tracer = install_tracer(tracer)
    try:
        result = runner.run_mix(mix, args.approach)
    finally:
        if tracer is not None:
            from .telemetry import install_tracer

            install_tracer(previous_tracer)
            tracer.write(args.spans)
    recorder = runner.last_telemetry
    if recorder is None:  # pragma: no cover - trace never attaches a store
        print("error: no telemetry was recorded", file=sys.stderr)
        return 1
    metrics = result.metrics
    print(
        f"{mix.name} under {args.approach}  "
        f"(horizon {args.horizon}, seed {args.seed})"
    )
    print(
        f"WS={metrics.weighted_speedup:.3f} "
        f"HS={metrics.harmonic_speedup:.3f} "
        f"MS={metrics.max_slowdown:.3f}"
    )
    summary = result.telemetry or {}
    print(
        f"epochs={summary.get('epochs', 0)} "
        f"quanta={summary.get('quanta', 0)} "
        f"policy_epochs={summary.get('policy_epochs', 0)} "
        f"repartitions={summary.get('repartitions', '-')} "
        f"pages_migrated={summary.get('pages_migrated', '-')}"
    )
    if args.profile and runner.last_profile is not None:
        _print_profile(runner.last_profile)
    print("\nEpoch timeline (Q = scheduler quantum, P = policy epoch):")
    print(render_timeline(recorder, last=args.last))
    print("\nPolicy decisions:")
    print(render_decisions(recorder))
    if args.jsonl:
        recorder.dump_jsonl(args.jsonl)
        print(f"\nwrote {len(recorder.records)} epoch records to {args.jsonl}")
    if args.stream and recorder.stream is not None:
        print(
            f"\nstreamed {recorder.stream.records_written} epoch records "
            f"to {args.stream}"
        )
    if args.spans:
        print(f"\nwrote span timeline to {args.spans}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from .metrics import kernel_counter_summary, render_kernel_summary

    mix = resolve_mix(args.mix)
    runner = Runner(
        horizon=args.horizon,
        seed=args.seed,
        profile=True,
        kernel=getattr(args, "kernel", None),
    )
    from .memctrl.controller import resolve_kernel

    result = runner.run_mix(mix, args.approach)
    summary = kernel_counter_summary(result.metrics_snapshot or {})
    kernel = resolve_kernel(runner.kernel)
    if args.format == "json":
        doc = {
            "mix": mix.name,
            "approach": args.approach,
            "horizon": args.horizon,
            "seed": args.seed,
            "kernel": kernel,
            "profile": runner.last_profile,
            "kernel_counters": summary,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"{mix.name} under {args.approach}  "
        f"(horizon {args.horizon}, seed {args.seed}, kernel {kernel})"
    )
    if runner.last_profile is not None:
        _print_profile(runner.last_profile)
    print()
    print(render_kernel_summary(summary))
    if summary["decisions"] == 0:
        print(
            "\n(counters are all zero: the reference kernel records "
            "nothing — rerun with --kernel fast)"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics.registry import prometheus_text

    mix = resolve_mix(args.mix)
    runner = Runner(
        horizon=args.horizon,
        seed=args.seed,
        kernel=getattr(args, "kernel", None),
    )
    result = runner.run_mix(mix, args.approach)
    snapshot = result.metrics_snapshot or {"metrics": []}
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(prometheus_text(snapshot), end="")
    return 0


#: First positional tokens that select a trace-library verb rather than
#: the legacy "analyze these apps" form.
_LIBRARY_VERBS = ("import", "list", "info", "export")


def _cmd_traces(args: argparse.Namespace, runner: Runner) -> int:
    from .workloads import analyze_trace

    if args.apps[0] in _LIBRARY_VERBS:
        return _cmd_trace_library(args.apps[0], args.apps[1:], args, runner)
    for app in args.apps:
        print(analyze_trace(runner.trace_for(app)).render())
        print()
    return 0


def _cmd_trace_library(
    verb: str,
    operands: List[str],
    args: argparse.Namespace,
    runner: Runner,
) -> int:
    from .errors import ConfigError
    from .traces import TraceLibrary

    library = TraceLibrary(args.library)
    if verb == "import":
        if len(operands) != 1:
            raise ConfigError("usage: traces import PATH [--name N ...]")
        entry = library.import_file(
            operands[0],
            name=args.name,
            fmt=args.trace_format,
            characterize=not args.no_characterize,
            config=runner.config,
            horizon=args.horizon,
            override=args.override,
        )
        kind = "intensive" if entry.intensive else "light"
        print(
            f"imported {entry.name!r} from {operands[0]} "
            f"({entry.source_format}, {entry.records} records, "
            f"{entry.total_insts} insts, class {kind})"
        )
        print(f"  library: {library.root}")
        print(f"  digest:  {entry.digest}")
        if entry.characterization:
            c = entry.characterization
            print(
                f"  measured: mpki={c.get('mpki', 0.0):.2f} "
                f"rbh={c.get('rbh', 0.0):.3f} blp={c.get('blp', 0.0):.2f} "
                f"ipc_alone={c.get('ipc_alone', 0.0):.3f}"
            )
        print(f"usable in mixes now, e.g.: repro-dbp mix {entry.name}+lbm")
        return 0
    if verb == "list":
        entries = library.entries()
        if not entries:
            print(f"trace library {library.root} is empty")
            return 0
        print(f"trace library {library.root}:")
        header = (
            f"  {'name':<20} {'class':<9} {'records':>9} "
            f"{'insts':>11} {'mpki':>7}  digest"
        )
        print(header)
        print("  " + "-" * (len(header) - 2))
        for name in library.names():
            entry = entries[name]
            char = entry.get("characterization") or {}
            mpki = char.get("mpki")
            mpki_text = f"{mpki:>7.2f}" if mpki is not None else f"{'-':>7}"
            print(
                f"  {name:<20} {str(entry.get('class', '?')):<9} "
                f"{int(entry.get('records', 0)):>9} "
                f"{int(entry.get('total_insts', 0)):>11} "
                f"{mpki_text}  {str(entry['digest'])[:16]}…"
            )
        return 0
    if verb == "info":
        if len(operands) != 1:
            raise ConfigError("usage: traces info NAME")
        name = operands[0]
        entry = library.entry(name)
        print(f"{name}  ({library.path_for(name)})")
        print(f"  digest:        {entry['digest']}")
        print(f"  records:       {entry.get('records', 0)}")
        print(f"  total insts:   {entry.get('total_insts', 0)}")
        print(f"  source format: {entry.get('source_format', '?')}")
        print(f"  imported from: {entry.get('imported_from', '') or '-'}")
        print(f"  class:         {entry.get('class', '?')}")
        char = entry.get("characterization") or {}
        if char:
            print("  characterization (alone run):")
            for key in sorted(char):
                print(f"    {key:<16} {char[key]}")
        return 0
    if verb == "export":
        if len(operands) != 1:
            raise ConfigError("usage: traces export NAME [--to PATH]")
        name = operands[0]
        suffix = "rtrc" if args.export_format == "rtrc" else "trace"
        dest = args.to if args.to else f"{name}.{suffix}"
        library.export(name, dest, fmt=args.export_format)
        print(f"wrote {dest} ({args.export_format})")
        return 0
    raise ConfigError(f"unknown traces verb {verb!r}")  # pragma: no cover


def _cmd_gen_traces(args: argparse.Namespace, runner: Runner) -> int:
    import os

    from .cpu.trace import save_trace
    from .traces import save_rtrc

    os.makedirs(args.out, exist_ok=True)
    for app in args.apps:
        trace = runner.trace_for(app)
        if args.trace_format == "rtrc":
            path = os.path.join(args.out, f"{app}.rtrc")
            save_rtrc(
                trace,
                path,
                provenance={
                    "imported_from": f"synthetic:{app} seed={runner.seed}",
                    "source_format": "synthetic",
                },
            )
        else:
            path = os.path.join(args.out, f"{app}.trace")
            save_trace(trace, path)
        print(f"wrote {path} ({len(trace)} records)")
    return 0


def _store_dir(args: argparse.Namespace):
    from .campaign import default_store_dir

    return args.store if args.store else default_store_dir()


def _open_query_index(args: argparse.Namespace):
    """The index named by --db/--store, building it on first use.

    An explicit ``--db`` opens that SQLite file; otherwise the store
    directory's colocated index is opened, syncing it from the blobs when
    it does not exist yet (later freshness is the put-time hook's and
    ``results index``'s business).
    """
    from .results import index_path_for, open_index

    if getattr(args, "db", None):
        return open_index(args.db)
    root = _store_dir(args)
    return open_index(root, sync=not index_path_for(root).is_file())


def _cmd_results(args: argparse.Namespace) -> int:
    if args.results_verb == "index":
        return _cmd_results_index(args)
    if args.results_verb == "query":
        return _cmd_results_query(args)
    if args.results_verb == "compare":
        return _cmd_results_compare(args)
    if args.results_verb == "gates":
        return _cmd_results_gates(args)
    if args.results_verb == "perf-trend":
        return _cmd_results_perf_trend(args)
    raise ReproError(f"unknown results verb {args.results_verb!r}")


def _cmd_results_perf_trend(args: argparse.Namespace) -> int:
    from .results import (
        ResultIndex,
        bench_trend,
        check_bench_docs,
        index_path_for,
        load_bench_docs,
        render_findings,
        render_trend,
        sync_bench_dir,
    )

    docs = load_bench_docs(args.bench_dir)
    # Unlike the query verbs, perf-trend may be the first thing to touch
    # the index (CI runs it without ever building a store), so open the
    # index file directly — ResultIndex creates it and its parents.
    db_path = args.db if args.db else index_path_for(_store_dir(args))
    with ResultIndex(db_path) as index:
        count = sync_bench_dir(index, args.bench_dir)
        rows = bench_trend(index, benchmark=args.benchmark)
    findings = check_bench_docs(docs, tolerance=args.tolerance)
    if args.benchmark is not None:
        findings = [f for f in findings if f.benchmark == args.benchmark]
    if args.format == "json":
        doc = {
            "synced_samples": count,
            "trend": rows,
            "findings": [
                {
                    "benchmark": f.benchmark,
                    "kind": f.kind,
                    "date": f.date,
                    "message": f.message,
                }
                for f in findings
            ],
            "tolerance": args.tolerance,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"synced {count} benchmark sample(s) from {args.bench_dir}")
        print(render_trend(rows))
        print()
        print(render_findings(findings))
    if args.check and findings:
        return 1
    return 0


def _cmd_results_index(args: argparse.Namespace) -> int:
    from .campaign import ResultStore
    from .results import ResultIndex, index_path_for

    root = _store_dir(args)
    store = ResultStore(root, index=False)
    db_path = args.db if args.db else index_path_for(root)
    with ResultIndex(db_path) as index:
        report = index.sync(store, prune=not args.no_prune)
        print(f"{db_path}: {report.render()}")
        for path in report.malformed_paths:
            print(f"  malformed: {path}", file=sys.stderr)
        print(f"index rows: {index.count()}")
    return 0


def _cmd_results_query(args: argparse.Namespace) -> int:
    from .errors import ConfigError
    from .results import (
        approach_rollup,
        intensity_breakdown,
        pair_deltas,
        render_intensity,
        render_pair_deltas,
        render_rollup,
    )

    with _open_query_index(args) as index:
        if args.view == "deltas":
            if not args.pair:
                raise ConfigError(
                    "results query --view deltas needs --pair BETTER BASELINE"
                )
            deltas = pair_deltas(
                index,
                args.pair[0],
                args.pair[1],
                mix=args.mix,
                seed=args.run_seed,
                horizon=args.run_horizon,
            )
            if args.format == "json":
                print(json.dumps(deltas.as_dict(), indent=2))
            else:
                print(render_pair_deltas(deltas))
            return 0
        if args.view == "rollup":
            rollup = approach_rollup(
                index,
                [args.approach] if args.approach else None,
                horizon=args.run_horizon,
            )
            if args.format == "json":
                print(json.dumps(rollup, indent=2, sort_keys=True))
            else:
                print(render_rollup(rollup))
            return 0
        if args.view == "intensity":
            breakdown = intensity_breakdown(
                index, [args.approach] if args.approach else None
            )
            if args.format == "json":
                print(json.dumps(breakdown, indent=2, sort_keys=True))
            else:
                print(render_intensity(breakdown))
            return 0
        rows = index.rows(
            mix=args.mix,
            approach=args.approach,
            seed=args.run_seed,
            horizon=args.run_horizon,
            current_version_only=not args.all_versions,
        )
        if args.format == "json":
            print(json.dumps(rows, indent=2))
            return 0
        from .experiments.report import render_table

        table_rows = [
            [
                r["mix"],
                r["approach"],
                "-" if r["seed"] is None else r["seed"],
                "-" if r["horizon"] is None else r["horizon"],
                round(float(r["ws"]), 3),
                round(float(r["hs"]), 3),
                round(float(r["ms"]), 3),
                str(r["key"])[:12] + "…",
            ]
            for r in rows
        ]
        print(
            render_table(
                ["mix", "approach", "seed", "horizon", "ws", "hs", "ms",
                 "key"],
                table_rows,
            )
        )
        print(f"{len(rows)} run(s)")
    return 0


def _cmd_results_compare(args: argparse.Namespace) -> int:
    from .results import compare_indexes, open_index, render_compare

    with open_index(args.side_a, sync=True) as index_a, open_index(
        args.side_b, sync=True
    ) as index_b:
        summary = compare_indexes(
            index_a,
            index_b,
            label_a=args.side_a,
            label_b=args.side_b,
            tolerance_pct=args.tolerance,
        )
    if args.format == "json":
        print(json.dumps(summary.as_dict(), indent=2))
    else:
        print(render_compare(summary))
    if args.fail_on_regression and summary.regressions:
        return 1
    return 0


def _cmd_results_gates(args: argparse.Namespace) -> int:
    from .results import PAPER_GATES, evaluate_gates, load_gates_file

    gates = (
        load_gates_file(args.gates_file) if args.gates_file else PAPER_GATES
    )
    with _open_query_index(args) as index:
        report = evaluate_gates(
            index,
            gates,
            claims=args.claims,
            horizon=args.run_horizon,
            seed=args.run_seed,
        )
    doc = report.as_dict(strict=args.strict)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(report.render())
    return 0 if report.ok(strict=args.strict) else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.tune_verb == "run":
        return _cmd_tune_run(args)
    if args.tune_verb == "report":
        return _cmd_tune_report(args)
    if args.tune_verb == "frontier":
        return _cmd_tune_frontier(args)
    raise ReproError(f"unknown tune verb {args.tune_verb!r}")


def _cmd_tune_run(args: argparse.Namespace) -> int:
    from .campaign import ResultStore
    from .errors import ConfigError
    from .results import ResultIndex, index_path_for
    from .tuner import frontier_doc, render_frontier, run_study, trial_rows

    searcher_opts = {}
    if args.strategy == "halving":
        if args.survivors is not None:
            searcher_opts["survivor_fraction"] = args.survivors
        if args.screen_fidelity is not None:
            searcher_opts["screen_fidelity"] = args.screen_fidelity
    elif args.survivors is not None or args.screen_fidelity is not None:
        raise ConfigError(
            "--survivors/--screen-fidelity only apply to --strategy halving"
        )
    root = _store_dir(args)
    store = ResultStore(root)
    db_path = args.db if args.db else index_path_for(root)

    def _progress(trial) -> None:
        if args.quiet:
            return
        point = trial.point
        score = (
            f"score={trial.score:.4f}"
            if trial.score is not None
            else f"FAILED ({trial.error})"
        )
        label = "baseline" if trial.is_default else trial.approach
        print(
            f"  trial {point.trial_id:>3} rung {point.rung} "
            f"fid {point.fidelity:.2f} h={trial.horizon} "
            f"{label}: {score} "
            f"[{trial.cached}c/{trial.executed}x {trial.wall_clock:.1f}s]",
            file=sys.stderr,
        )

    with ResultIndex(db_path) as index:
        result = run_study(
            approach=args.approach,
            strategy=args.strategy,
            budget=args.budget,
            objective=args.objective,
            seed=args.seed,
            mixes=tuple(args.mixes) if args.mixes else ("M4", "M7"),
            horizon=args.horizon,
            store=store,
            index=index,
            jobs=args.jobs,
            study=args.study,
            progress=_progress,
            searcher_opts=searcher_opts or None,
            retries=args.retries,
            timeout=args.timeout,
        )
        rows = trial_rows(index, result.study)
    if args.format == "json":
        doc = {
            "study": result.study,
            "strategy": result.strategy,
            "objective": result.objective,
            "base_approach": result.base_approach,
            "mixes": result.mixes,
            "seed": result.seed,
            "trials": rows,
            "total_runs": result.total_runs,
            "cache_hits": result.cache_hits,
            "cache_hit_rate": result.cache_hit_rate,
            "wall_clock": result.wall_clock,
            "frontier": frontier_doc(rows),
        }
        print(json.dumps(doc, indent=2))
        return 0
    from .tuner import render_trials

    best = result.best
    print(
        f"study {result.study}: {len(result.trials)} trial(s) over "
        f"{'+'.join(result.mixes)} in {result.wall_clock:.1f}s"
    )
    print(
        f"{result.cache_hits}/{result.total_runs} cached "
        f"({100.0 * result.cache_hit_rate:.0f}% hit rate)"
    )
    if best is not None:
        print(f"best: {best.approach} ({result.objective}={best.score:.4f})")
    print()
    print(render_trials(rows))
    print()
    print(render_frontier(rows))
    return 0


def _tune_study_rows(args: argparse.Namespace, index) -> tuple:
    """(study, rows) for report/frontier, defaulting to the sole study."""
    from .errors import ConfigError
    from .tuner import studies, trial_rows

    study = args.study
    if study is None:
        recorded = [row["study"] for row in studies(index)]
        if not recorded:
            raise ConfigError(
                "no tuning studies recorded — run `repro-dbp tune run` first"
            )
        if len(recorded) > 1:
            raise ConfigError(
                "several studies recorded; pick one with --study: "
                + ", ".join(str(s) for s in recorded)
            )
        study = recorded[0]
    rows = trial_rows(index, study)
    if not rows:
        raise ConfigError(f"no trials recorded for study {study!r}")
    return study, rows


def _cmd_tune_report(args: argparse.Namespace) -> int:
    from .tuner import render_studies, render_trials, studies, trial_rows

    with _open_query_index(args) as index:
        if args.study is not None:
            rows = trial_rows(index, args.study)
            if args.format == "json":
                print(json.dumps(rows, indent=2))
            else:
                print(render_trials(rows))
            return 0
        summary = studies(index)
        if args.format == "json":
            print(json.dumps(summary, indent=2))
        else:
            print(render_studies(summary))
    return 0


def _cmd_tune_frontier(args: argparse.Namespace) -> int:
    from .tuner import frontier_doc, render_frontier

    with _open_query_index(args) as index:
        study, rows = _tune_study_rows(args, index)
    doc = frontier_doc(rows)
    doc["study"] = study
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"study {study}")
        print(render_frontier(rows))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .campaign import ResultStore

    store = ResultStore(_store_dir(args), index=False)
    if args.store_verb == "stats":
        return _cmd_store_stats(args, store)
    if args.store_verb == "ls":
        return _cmd_store_ls(args, store)
    if args.store_verb == "gc":
        return _cmd_store_gc(args, store)
    raise ReproError(f"unknown store verb {args.store_verb!r}")


def _cmd_store_stats(args: argparse.Namespace, store) -> int:
    disk = store.disk_stats()
    index_rows = None
    versions = {}
    if disk["index_exists"]:
        from .results import ResultIndex

        with ResultIndex(store.index_path()) as index:
            index_rows = index.count()
            versions = index.version_counts()
    if args.format == "json":
        doc = dict(disk)
        doc["index_rows"] = index_rows
        doc["index_version_counts"] = {
            str(v): n for v, n in sorted(versions.items())
        }
        doc["handle_stats"] = store.stats.as_dict()
        print(json.dumps(doc, indent=2))
        return 0
    print(f"store {disk['root']}")
    print(
        f"  entries:     {disk['entries']} "
        f"({disk['entry_bytes']} bytes)"
    )
    print(
        f"  alone:       {disk['alone_records']} record(s) "
        f"({disk['alone_bytes']} bytes)"
    )
    print(
        f"  quarantined: {disk['quarantined']} "
        f"({disk['quarantined_bytes']} bytes)"
    )
    print(f"  tmp files:   {disk['tmp_files']}")
    if index_rows is None:
        print("  index:       absent (build with: repro-dbp results index)")
    else:
        version_text = ", ".join(
            f"v{v}: {n}" for v, n in sorted(versions.items())
        )
        print(
            f"  index:       {index_rows} row(s), "
            f"{disk['index_bytes']} bytes ({version_text})"
        )
    return 0


def _cmd_store_ls(args: argparse.Namespace, store) -> int:
    if args.corrupt:
        paths = store.quarantined_paths()
        for path in paths:
            print(path)
        print(f"{len(paths)} quarantined file(s)")
        return 0
    from .experiments.report import render_table

    shown = 0
    rows = []
    total = 0
    for key, path in store.iter_blobs():
        total += 1
        if args.limit and shown >= args.limit:
            continue
        shown += 1
        try:
            doc = store.load_doc(path)
            spec = doc.get("spec") or {}
            metrics = doc["result"]["metrics"]
            rows.append(
                [
                    key[:12] + "…",
                    doc.get("version", "?"),
                    spec.get("mix") or metrics.get("mix", "?"),
                    spec.get("approach") or metrics.get("approach", "?"),
                    spec.get("seed", "-"),
                    spec.get("horizon", "-"),
                ]
            )
        except (OSError, ValueError, KeyError, TypeError):
            rows.append([key[:12] + "…", "?", "<malformed>", "-", "-", "-"])
    print(
        render_table(
            ["key", "ver", "mix", "approach", "seed", "horizon"], rows
        )
    )
    suffix = f" (showing {shown})" if shown < total else ""
    print(f"{total} entr{'y' if total == 1 else 'ies'}{suffix}")
    return 0


def _cmd_store_gc(args: argparse.Namespace, store) -> int:
    removed = []
    if args.dry_run:
        quarantined = store.quarantined_paths()
        tmp = store.orphaned_tmp_paths()
        stale = store.stale_paths() if args.stale else []
        for label, paths in (
            ("quarantined", quarantined),
            ("tmp", tmp),
            ("stale", stale),
        ):
            for path in paths:
                print(f"would delete [{label}] {path}")
        print(
            f"dry run: {len(quarantined)} quarantined, {len(tmp)} tmp"
            + (f", {len(stale)} stale" if args.stale else "")
            + " file(s) would be deleted"
        )
        return 0
    count, freed = store.purge_quarantined()
    removed.append(f"{count} quarantined ({freed} bytes)")
    count, freed = store.purge_orphaned_tmp()
    removed.append(f"{count} tmp ({freed} bytes)")
    if args.stale:
        count, freed = store.purge_stale()
        removed.append(f"{count} stale ({freed} bytes)")
    print(f"gc {store.root}: removed " + ", ".join(removed))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "results":
            return _cmd_results(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "perf":
            return _cmd_perf(args)
        store = None
        if getattr(args, "store", None) is not None:
            from .campaign import ResultStore, default_store_dir

            store = ResultStore(
                default_store_dir() if args.store == "auto" else args.store
            )
        runner = Runner(
            horizon=args.horizon,
            seed=args.seed,
            store=store,
            jobs=getattr(args, "jobs", 1),
            profile=getattr(args, "profile", False),
            kernel=getattr(args, "kernel", None),
        )
        if args.command == "config":
            print(runner.config.describe())
            return 0
        if args.command == "run":
            return _cmd_run(args, runner)
        if args.command == "mix":
            return _cmd_mix(args, runner)
        if args.command == "traces":
            return _cmd_traces(args, runner)
        if args.command == "gen-traces":
            return _cmd_gen_traces(args, runner)
        parser.error(f"unknown command {args.command!r}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
