"""``tune`` — auto-tuning over the declared parameter spaces: ``tune run``
drives a seeded search strategy (tpe | random) with the campaign
grid as the objective (every simulation lands in the content-addressed
store, so repeated points are cache hits and re-running a study is nearly
free), ``tune report`` lists recorded studies and their trials, ``tune
frontier`` renders the WS-vs-MS Pareto frontier of tuned points against
the paper default with an explicit dominance verdict."""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ConfigError
from .common import (
    add_format,
    add_jobs,
    add_store_dir,
    add_supervision,
    at_least,
    store_dir,
)


def add_tune(sub) -> None:
    tune = sub.add_parser(
        "tune",
        help="auto-tune policy parameters: run | report | frontier",
    ).add_subparsers(dest="tune_verb", required=True)

    run = tune.add_parser(
        "run",
        help=(
            "run one seeded tuning study (full horizon = the global "
            "--horizon, seed = the global --seed)"
        ),
    )
    run.set_defaults(handler=cmd_run)
    run.add_argument(
        "--approach",
        default="dbp",
        help="base approach to tune (default: dbp)",
    )
    run.add_argument(
        "--strategy",
        choices=["random", "tpe"],
        default="tpe",
        help="search strategy (default: tpe)",
    )
    run.add_argument(
        "--budget",
        type=at_least(1),
        default=12,
        help="searched trials, excluding the free baseline (default 12)",
    )
    run.add_argument(
        "--objective",
        choices=["balanced", "ws", "hs", "ms"],
        default="balanced",
        help="scalar objective over the mix set (default: balanced = WS/MS)",
    )
    run.add_argument(
        "--mixes",
        nargs="*",
        default=None,
        help="mix names to score over (default: M4 M7)",
    )
    add_jobs(run, "worker processes (default 1)")
    run.add_argument(
        "--study",
        default=None,
        help="study name (default: APPROACH-STRATEGY-OBJECTIVE-sSEED)",
    )
    add_supervision(run, "extra attempts for a failed run (default 1)")
    add_store_dir(run)
    run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-trial progress lines on stderr",
    )
    add_format(run)

    report = tune.add_parser(
        "report", help="list recorded studies (or one study's trials)"
    )
    report.set_defaults(handler=cmd_report)
    add_store_dir(report)
    report.add_argument(
        "--study", default=None, help="show this study's trials in full"
    )
    add_format(report)

    frontier = tune.add_parser(
        "frontier",
        help="WS-vs-MS Pareto frontier of a study vs the paper default",
    )
    frontier.set_defaults(handler=cmd_frontier)
    add_store_dir(frontier)
    frontier.add_argument(
        "--study",
        default=None,
        help="study name (default: the only recorded study)",
    )
    frontier.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the machine-readable JSON frontier to PATH",
    )
    add_format(frontier)


def cmd_run(args: argparse.Namespace) -> int:
    from ..campaign.store import ResultStore
    from ..tuner.api import run_study
    from ..tuner.report import frontier_doc, render_frontier, render_trials
    from ..tuner.studies import trial_rows

    root = store_dir(args)

    def _progress(trial) -> None:
        if args.quiet:
            return
        score = (
            f"score={trial.score:.4f}"
            if trial.score is not None
            else f"FAILED ({trial.error})"
        )
        label = "baseline" if trial.is_default else trial.approach
        print(
            f"  trial {trial.point.trial_id:>3} h={trial.horizon} "
            f"{label}: {score} "
            f"[{trial.cached}c/{trial.executed}x {trial.wall_clock:.1f}s]",
            file=sys.stderr,
        )

    result = run_study(
        approach=args.approach,
        strategy=args.strategy,
        budget=args.budget,
        objective=args.objective,
        seed=args.seed,
        mixes=tuple(args.mixes) if args.mixes else ("M4", "M7"),
        horizon=args.horizon,
        store=ResultStore(root),
        jobs=args.jobs,
        study=args.study,
        progress=_progress,
        retries=args.retries,
        timeout=args.timeout,
    )
    rows = trial_rows(root, result.study)
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


def _study_rows(args: argparse.Namespace) -> tuple:
    """(study, rows) for the frontier, defaulting to the sole study."""
    from ..tuner.studies import study_summaries, trial_rows

    root = store_dir(args)
    study = args.study
    if study is None:
        recorded = [row["study"] for row in study_summaries(root)]
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
    rows = trial_rows(root, study)
    if not rows:
        raise ConfigError(f"no trials recorded for study {study!r}")
    return study, rows


def cmd_report(args: argparse.Namespace) -> int:
    from ..tuner.report import render_studies, render_trials
    from ..tuner.studies import study_summaries, trial_rows

    root = store_dir(args)
    if args.study is not None:
        rows = trial_rows(root, args.study)
        if args.format == "json":
            print(json.dumps(rows, indent=2))
        else:
            print(render_trials(rows))
        return 0
    summary = study_summaries(root)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(render_studies(summary))
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    from ..tuner.report import frontier_doc, render_frontier

    study, rows = _study_rows(args)
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
