"""``store`` — blob-store maintenance: ``store stats`` (entries, alone
records, bytes, quarantine and index state), ``store ls`` (entries or
quarantined files), ``store gc`` (prune quarantined/tmp/stale files)."""

from __future__ import annotations

import argparse
import json

from .common import add_format, add_index_source, store_dir


def add_store(sub) -> None:
    store = sub.add_parser(
        "store", help="blob-store maintenance: stats | ls | gc"
    ).add_subparsers(dest="store_verb", required=True)
    stats = store.add_parser(
        "stats", help="entry/quarantine/index accounting for a store"
    )
    stats.set_defaults(handler=cmd_stats)
    add_index_source(stats, with_db=False)
    add_format(stats)
    ls = store.add_parser("ls", help="list store entries")
    ls.set_defaults(handler=cmd_ls)
    add_index_source(ls, with_db=False)
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
    gc = store.add_parser(
        "gc", help="prune quarantined and orphaned-tmp files"
    )
    gc.set_defaults(handler=cmd_gc)
    add_index_source(gc, with_db=False)
    gc.add_argument(
        "--stale",
        action="store_true",
        help="also delete entries, alone records and failure records "
        "written under another version",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without deleting",
    )


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
