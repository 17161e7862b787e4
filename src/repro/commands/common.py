"""Argparse pieces and lookups the command modules share."""

from __future__ import annotations

import argparse
import math
from typing import Callable, Sequence


def at_least(
    minimum: float, kind: type = int, *, inclusive: bool = True
) -> Callable[[str], float]:
    """An argparse ``type=``: a finite ``kind`` (int or float) no smaller
    than ``minimum`` — strictly greater when not ``inclusive``."""
    bound = f"{'>=' if inclusive else '>'} {minimum}"

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not math.isfinite(value) or value < minimum or (
            value == minimum and not inclusive
        ):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
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
        type=at_least(0, float, inclusive=False),
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


def add_store_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: benchmarks/results/store)",
    )


def store_dir(args: argparse.Namespace):
    from ..campaign.store import default_store_dir

    return args.store if args.store else default_store_dir()


def open_query_index(args: argparse.Namespace):
    """The --store directory's index, built from the blobs on first use
    (later freshness is the put-time hook's and ``results index``'s
    business)."""
    from ..results.db import index_path_for, open_index

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
