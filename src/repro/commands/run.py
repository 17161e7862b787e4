"""The catalogue and plain runs.

* ``list``   — experiments, approaches, applications, mixes;
  ``--tunables`` adds each approach's declared parameter space.
* ``config`` — print the simulated system configuration.
* ``run``    — run one experiment by id and print its table; ``--jobs``
  fans its sweeps out over worker processes.
"""

from __future__ import annotations

import argparse
import time

from .common import add_format, add_jobs, make_runner


def add_list(sub) -> None:
    parser = sub.add_parser(
        "list", help="list experiments, approaches, apps, mixes"
    )
    parser.set_defaults(handler=cmd_list)
    parser.add_argument(
        "--tunables",
        action="store_true",
        help="also print each approach's declared tunable-parameter space",
    )


def add_config(sub) -> None:
    parser = sub.add_parser("config", help="print the system configuration")
    parser.set_defaults(handler=cmd_config)


def add_run(sub) -> None:
    parser = sub.add_parser("run", help="run one experiment by id")
    parser.set_defaults(handler=cmd_run, usage_error=parser.error)
    parser.add_argument("experiment", help="experiment id, e.g. F2")
    parser.add_argument(
        "--mixes",
        nargs="*",
        default=None,
        help="restrict sweep experiments to these mixes",
    )
    add_format(parser, ("table", "csv", "json"))
    add_jobs(
        parser, "worker processes for sweep experiments (default 1 = serial)"
    )
    parser.add_argument(
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


def cmd_list(args: argparse.Namespace) -> int:
    from ..core.integration import APPROACHES
    from ..experiments.catalog import EXPERIMENTS
    from ..workloads.mixes import MIXES
    from ..workloads.profiles import APP_PROFILES

    print("experiments:")
    for exp_id in sorted(EXPERIMENTS):
        print(f"  {exp_id:<3} {EXPERIMENTS[exp_id].doc}")
    print("\napproaches:")
    for name in sorted(APPROACHES):
        print(f"  {name:<14} {APPROACHES[name].description}")
    if args.tunables:
        from ..tuner.space import approach_space

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


def cmd_config(args: argparse.Namespace) -> int:
    from ..config import SystemConfig

    print(SystemConfig().describe())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from ..experiments.catalog import EXPERIMENTS, run_experiment

    kwargs = {}
    if args.mixes:
        experiment = EXPERIMENTS.get(args.experiment.upper())
        if experiment is not None and experiment.mixes is None:
            args.usage_error(f"experiment {experiment.exp_id} takes no --mixes")
        kwargs["mixes"] = args.mixes
    store = None
    if args.store is not None:
        from ..campaign.store import ResultStore, default_store_dir

        store = ResultStore(
            default_store_dir() if args.store == "auto" else args.store
        )
    runner = make_runner(args, store=store, jobs=args.jobs)
    started = time.time()
    result = run_experiment(args.experiment, runner, **kwargs)
    if args.format == "csv":
        print(result.to_csv(), end="")
    elif args.format == "json":
        print(result.to_json())
    else:
        print(result.render())
        print(f"\n({time.time() - started:.1f}s simulated wall-clock)")
    return 0
