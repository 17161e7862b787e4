"""``results`` — the result service over the store: ``results index`` syncs
the SQLite index from the blobs, ``results query`` filters runs and derived
views (rollups, pair deltas, intensity breakdowns), ``results compare``
A/B-diffs two campaigns or store snapshots, ``results gates`` evaluates the
C1-C3 acceptance gates (or a custom JSON gates file) with a
machine-readable report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .common import (
    add_format,
    add_index_source,
    at_least,
    open_query_index,
    store_dir,
)


def add_results(sub) -> None:
    results = sub.add_parser(
        "results",
        help="result service: index | query | compare | gates",
    ).add_subparsers(dest="results_verb", required=True)

    index = results.add_parser(
        "index", help="sync the SQLite index from the blob store"
    )
    index.set_defaults(handler=cmd_index)
    add_index_source(index)
    index.add_argument(
        "--no-prune",
        action="store_true",
        help="keep index rows whose blob entry disappeared",
    )

    query = results.add_parser(
        "query", help="query indexed runs and derived views"
    )
    query.set_defaults(handler=cmd_query)
    add_index_source(query)
    query.add_argument(
        "--view",
        choices=["runs", "rollup", "deltas", "intensity"],
        default="runs",
        help="what to show (default: runs)",
    )
    query.add_argument(
        "--pair",
        nargs=2,
        default=None,
        metavar=("BETTER", "BASELINE"),
        help="approach pair for --view deltas (e.g. dbp ebp)",
    )
    query.add_argument("--mix", default=None, help="filter: mix name")
    query.add_argument(
        "--approach", default=None, help="filter: approach name"
    )
    query.add_argument(
        "--run-seed", type=int, default=None, help="filter: workload seed"
    )
    query.add_argument(
        "--run-horizon", type=int, default=None, help="filter: horizon"
    )
    query.add_argument(
        "--all-versions",
        action="store_true",
        help="include rows from other STORE_VERSIONs",
    )
    add_format(query)

    compare = results.add_parser(
        "compare",
        help="A/B diff two campaigns (index files or store directories)",
    )
    compare.set_defaults(handler=cmd_compare)
    compare.add_argument(
        "side_a", metavar="A", help="index.sqlite file or store directory"
    )
    compare.add_argument(
        "side_b", metavar="B", help="index.sqlite file or store directory"
    )
    compare.add_argument(
        "--tolerance",
        type=at_least(0, float),
        default=0.5,
        metavar="PCT",
        help="metric-delta tolerance in percent (default 0.5)",
    )
    compare.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any run regressed beyond tolerance",
    )
    add_format(compare)

    gates = results.add_parser(
        "gates", help="evaluate paper-claim acceptance gates"
    )
    gates.set_defaults(handler=cmd_gates)
    add_index_source(gates)
    gates.add_argument(
        "--claims",
        nargs="*",
        default=None,
        metavar="CLAIM",
        help="restrict to these claim ids (e.g. C1 C3; default: all)",
    )
    gates.add_argument(
        "--gates-file",
        default=None,
        metavar="JSON",
        help="evaluate gates from a JSON file instead of the built-ins",
    )
    gates.add_argument(
        "--run-seed", type=int, default=None, help="scope: workload seed"
    )
    gates.add_argument(
        "--run-horizon", type=int, default=None, help="scope: horizon"
    )
    gates.add_argument(
        "--strict",
        action="store_true",
        help="treat skipped gates (missing runs) as failures",
    )
    gates.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the machine-readable JSON report to PATH",
    )
    add_format(gates)


def cmd_index(args: argparse.Namespace) -> int:
    from ..campaign.store import ResultStore
    from ..results.db import ResultIndex, ResultsError, index_path_for

    root = store_dir(args)
    if not Path(root).is_dir():
        # What query/gates say of the same path; syncing from nothing must
        # not leave an empty index behind that later reads then trust.
        raise ResultsError(f"no index database or store directory at {root}")
    store = ResultStore(root, index=False)
    db_path = args.db if args.db else index_path_for(root)
    with ResultIndex(db_path) as index:
        report = index.sync(store, prune=not args.no_prune)
        print(f"{db_path}: {report.render()}")
        for path in report.malformed_paths:
            print(f"  malformed: {path}", file=sys.stderr)
        print(f"index rows: {index.count()}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from ..errors import ConfigError
    from ..results.views import (
        approach_rollup,
        intensity_breakdown,
        pair_deltas,
        render_intensity,
        render_pair_deltas,
        render_rollup,
    )

    with open_query_index(args) as index:
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
        from ..experiments.report import render_table

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


def cmd_compare(args: argparse.Namespace) -> int:
    from ..results import compare_indexes, open_index, render_compare

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


def cmd_gates(args: argparse.Namespace) -> int:
    from ..results.gates import PAPER_GATES, evaluate_gates, load_gates_file

    gates = (
        load_gates_file(args.gates_file) if args.gates_file else PAPER_GATES
    )
    with open_query_index(args) as index:
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
