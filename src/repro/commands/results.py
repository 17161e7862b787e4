"""``results`` — everything over one store directory: ``results index``
syncs the SQLite index from the blobs, ``results query`` filters runs and
derived views (rollups, pair deltas, intensity breakdowns), ``results
compare`` A/B-diffs two stores, ``results gates`` evaluates the C1-C3
acceptance gates (or a custom JSON gates file) with a machine-readable
report, and ``results stats|ls|gc`` account for, list and prune the
store's files."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .common import (
    add_format,
    add_store_dir,
    at_least,
    open_query_index,
    store_dir,
)


def add_results(sub) -> None:
    results = sub.add_parser(
        "results",
        help=(
            "results over a store: index | query | compare | gates | "
            "stats | ls | gc"
        ),
    ).add_subparsers(dest="results_verb", required=True)

    index = results.add_parser(
        "index", help="sync the SQLite index from the blob store"
    )
    index.set_defaults(handler=cmd_index)
    add_store_dir(index)
    index.add_argument(
        "--no-prune",
        action="store_true",
        help="keep index rows whose blob entry disappeared",
    )

    query = results.add_parser(
        "query", help="query indexed runs and derived views"
    )
    query.set_defaults(handler=cmd_query)
    add_store_dir(query)
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
        help="A/B diff the runs of two store directories",
    )
    compare.set_defaults(handler=cmd_compare)
    compare.add_argument("side_a", metavar="A", help="store directory")
    compare.add_argument("side_b", metavar="B", help="store directory")
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
    add_store_dir(gates)
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

    stats = results.add_parser(
        "stats", help="entry/quarantine/index accounting for a store"
    )
    stats.set_defaults(handler=cmd_stats)
    add_store_dir(stats)
    add_format(stats)
    ls = results.add_parser("ls", help="list store entries")
    ls.set_defaults(handler=cmd_ls)
    add_store_dir(ls)
    ls.add_argument(
        "--corrupt",
        action="store_true",
        help="list quarantined .corrupt files instead of entries",
    )
    ls.add_argument(
        "--limit",
        type=int,
        default=50,
        metavar="N",
        help="show at most N entries (default 50; 0 = no limit)",
    )
    gc = results.add_parser(
        "gc", help="prune quarantined and orphaned-tmp files"
    )
    gc.set_defaults(handler=cmd_gc)
    add_store_dir(gc)
    gc.add_argument(
        "--stale",
        action="store_true",
        help="also delete entries, alone records, failure records and "
        "study documents written under another version",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without deleting",
    )


def cmd_index(args: argparse.Namespace) -> int:
    from ..campaign.store import ResultStore
    from ..results.db import ResultIndex, ResultsError, index_path_for

    root = store_dir(args)
    if not Path(root).is_dir():
        # What query/gates say of the same path; syncing from nothing must
        # not leave an empty index behind that later reads then trust.
        raise ResultsError(f"no store directory at {root}")
    store = ResultStore(root, index=False)
    db_path = index_path_for(root)
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


def _open(args: argparse.Namespace):
    from ..campaign.store import ResultStore

    return ResultStore(store_dir(args), index=False)


def cmd_stats(args: argparse.Namespace) -> int:
    store = _open(args)
    disk = store.disk_stats()
    index_rows = None
    versions = {}
    if disk["index_exists"]:
        from ..results.db import ResultIndex

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


def cmd_ls(args: argparse.Namespace) -> int:
    store = _open(args)
    if args.corrupt:
        paths = store.quarantined_paths()
        for path in paths:
            print(path)
        print(f"{len(paths)} quarantined file(s)")
        return 0
    from ..experiments.report import render_table

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
        except (ValueError, KeyError, TypeError):  # Corrupt is a ValueError
            rows.append([key[:12] + "…", "?", "<malformed>", "-", "-", "-"])
    print(
        render_table(
            ["key", "ver", "mix", "approach", "seed", "horizon"], rows
        )
    )
    suffix = f" (showing {shown})" if shown < total else ""
    print(f"{total} entr{'y' if total == 1 else 'ies'}{suffix}")
    return 0


def cmd_gc(args: argparse.Namespace) -> int:
    from ..campaign.store import unlink_all

    store = _open(args)
    groups = [
        ("quarantined", store.quarantined_paths()),
        ("tmp", store.orphaned_tmp_paths()),
    ]
    if args.stale:
        groups.append(("stale", store.stale_paths()))
    if args.dry_run:
        for label, paths in groups:
            for path in paths:
                print(f"would delete [{label}] {path}")
        counts = ", ".join(f"{len(paths)} {label}" for label, paths in groups)
        print(f"dry run: {counts} file(s) would be deleted")
        return 0
    removed = []
    for label, paths in groups:
        count, freed = unlink_all(paths)
        removed.append(f"{count} {label} ({freed} bytes)")
    print(f"gc {store.root}: removed " + ", ".join(removed))
    return 0
