"""``campaign`` — run a (mix x approach x seed) grid in parallel, backed by
the persistent result store (re-runs are served from disk); ``--gates``
evaluates the paper-claim acceptance gates over the finished grid and sets
the exit code."""

from __future__ import annotations

import argparse
import json
import sys

from ..workloads.mixes import MAIN_MIXES
from .common import add_format, add_jobs, add_supervision


def add_campaign(sub) -> None:
    parser = sub.add_parser(
        "campaign",
        help="run a mix x approach x seed grid in parallel, resumably",
    )
    parser.set_defaults(handler=cmd_campaign)
    parser.add_argument(
        "--mixes",
        nargs="*",
        default=None,
        help=f"mix names (default: the main evaluation set {list(MAIN_MIXES)})",
    )
    parser.add_argument(
        "--approaches",
        nargs="*",
        default=None,
        help="approach names (default: shared-frfcfs ebp dbp — the F2/F3 grid)",
    )
    parser.add_argument(
        "--seeds",
        nargs="*",
        type=int,
        default=None,
        help="workload seeds (default: the global --seed)",
    )
    add_jobs(parser, "worker processes (default 1)")
    add_supervision(
        parser, "extra attempts for a failed/crashed run (default 1)"
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        help="base of the exponential retry backoff in seconds (default 0.25)",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        help=(
            "deterministic failures before a spec is quarantined instead "
            "of retried (default 2)"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help=(
            "inject the deterministic fault plan into every worker "
            "(chaos testing; see repro.faults)"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result store directory (default: benchmarks/results/store)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the persistent store",
    )
    add_format(parser)
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-run progress lines on stderr",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record per-epoch telemetry and attach summaries to the store",
    )
    parser.add_argument(
        "--gates",
        action="store_true",
        help=(
            "evaluate the paper-claim acceptance gates (C1-C3) over the "
            "finished campaign; a failed gate fails the command"
        ),
    )
    parser.add_argument(
        "--gates-claims",
        nargs="*",
        default=None,
        metavar="CLAIM",
        help="restrict --gates to these claim ids (e.g. C1)",
    )
    parser.add_argument(
        "--spans",
        default=None,
        metavar="PATH",
        help=(
            "write a merged Chrome-trace span timeline (supervisor + all "
            "workers) to PATH; open it in Perfetto or chrome://tracing"
        ),
    )


def cmd_campaign(args: argparse.Namespace) -> int:
    from ..campaign import (
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
        from ..faults import FaultPlan

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
        faults=faults,
        spans=args.spans,
    )
    if args.spans and not args.quiet:
        print(f"wrote merged span timeline to {args.spans}", file=sys.stderr)
    gates_report = None
    if args.gates:
        from ..results import evaluate_gates, index_outcomes

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
