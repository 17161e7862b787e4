"""Argparse pieces and lookups the command modules share."""

from __future__ import annotations

import argparse
from typing import Callable, Sequence


def at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=``: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


def add_jobs(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--jobs", type=at_least(1), default=1, help=help)


def add_supervision(parser: argparse.ArgumentParser, retries_help: str) -> None:
    """``--retries`` and ``--timeout``, as the campaign executor takes them."""
    parser.add_argument(
        "--retries", type=at_least(0), default=1, help=retries_help
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run timeout in seconds (default: none)",
    )


def add_format(
    parser: argparse.ArgumentParser,
    choices: Sequence[str] = ("table", "json"),
) -> None:
    parser.add_argument(
        "--format",
        choices=list(choices),
        default="table",
        help="output format (default: table)",
    )


def add_index_source(
    parser: argparse.ArgumentParser, with_db: bool = True
) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: benchmarks/results/store)",
    )
    if with_db:
        parser.add_argument(
            "--db",
            default=None,
            metavar="PATH",
            help=(
                "SQLite index file (default: index.sqlite inside the "
                "store directory)"
            ),
        )


def store_dir(args: argparse.Namespace):
    from ..campaign.store import default_store_dir

    return args.store if args.store else default_store_dir()


def open_query_index(args: argparse.Namespace):
    """The index named by --db/--store, building it on first use.

    An explicit ``--db`` opens that SQLite file; otherwise the store
    directory's colocated index is opened, syncing it from the blobs when
    it does not exist yet (later freshness is the put-time hook's and
    ``results index``'s business).
    """
    from ..results.db import index_path_for, open_index

    if args.db:
        return open_index(args.db)
    root = store_dir(args)
    return open_index(root, sync=not index_path_for(root).is_file())


def make_runner(args: argparse.Namespace, **extra: object):
    """The Runner the global options describe (loads the simulator)."""
    from ..sim.runner import Runner

    return Runner(horizon=args.horizon, seed=args.seed, **extra)


def print_profile(report: dict) -> None:
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
