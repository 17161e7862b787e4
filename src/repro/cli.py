"""Command-line interface: ``repro-dbp`` (or ``python -m repro``).

This module is the registry: the global options, the subcommands in help
order, and the one dispatch. What each subcommand does is documented — and
implemented — in its module under :mod:`repro.commands`:

* :mod:`~repro.commands.run`      — ``list``, ``config``, ``run``, ``mix``
* :mod:`~repro.commands.campaign` — ``campaign``
* :mod:`~repro.commands.results`  — ``results index|query|compare|gates``
* :mod:`~repro.commands.store`    — ``store stats|ls|gc``
* :mod:`~repro.commands.tune`     — ``tune run|report|frontier``
* :mod:`~repro.commands.trace`    — ``trace``, ``perf``, ``metrics``
* :mod:`~repro.commands.traces`   — ``traces``, ``gen-traces``

Importing this module loads argparse and the command modules' parsers,
never the simulator: each handler imports the subsystem it drives when it
is selected, so ``results query`` on a store costs a SQLite read, not a
DDR3 model.

Anywhere a mix name is accepted, an ad-hoc ``app1+app2`` spec works too —
including library-trace names — so an imported real trace can be run
against synthetic apps without editing the mix table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .commands import campaign, results, run, store, trace, traces, tune
from .errors import ReproError

#: Every top-level subcommand, in ``--help`` order. Each entry adds one
#: subparser and binds its handler with ``set_defaults(handler=...)``.
_REGISTRY = (
    run.add_list,
    run.add_config,
    run.add_run,
    campaign.add_campaign,
    results.add_results,
    store.add_store,
    tune.add_tune,
    trace.add_trace,
    trace.add_perf,
    trace.add_metrics,
    run.add_mix,
    traces.add_traces,
    traces.add_gen_traces,
)


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
    sub = parser.add_subparsers(dest="command", required=True)
    for add in _REGISTRY:
        add(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
