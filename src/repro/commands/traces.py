"""``traces`` — the workload trace library: ``traces import`` parses an
external ChampSim/DRAMSim-style dump (or ``.rtrc``), characterizes it
alone, and registers it as a first-class app; ``traces list`` / ``info`` /
``export`` browse and extract the catalogue (``export`` also writes a
synthetic app's generated trace). ``traces APP...`` (legacy form)
analyzes generated traces."""

from __future__ import annotations

import argparse
from typing import List

from ..errors import ConfigError
from .common import make_runner


def add_traces(sub) -> None:
    parser = sub.add_parser(
        "traces",
        help=(
            "trace library (import | list | info NAME | export NAME|APP), "
            "or analyze generated traces: traces APP..."
        ),
    )
    parser.set_defaults(handler=cmd_traces)
    parser.add_argument(
        "apps",
        nargs="+",
        metavar="ARG",
        help=(
            "'import PATH', 'list', 'info NAME', 'export NAME|APP', or "
            "application names to analyze (e.g. mcf libquantum)"
        ),
    )
    parser.add_argument(
        "--library",
        default=None,
        metavar="DIR",
        help="trace library directory (default: benchmarks/traces/library)",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="import: register under this name (default: file basename)",
    )
    parser.add_argument(
        "--format",
        dest="trace_format",
        choices=["auto", "champsim", "dramsim", "rtrc", "text"],
        default="auto",
        help="import: input trace format (default: auto-detect)",
    )
    parser.add_argument(
        "--to",
        default=None,
        metavar="PATH",
        help="export: destination file (default: ./<name>.rtrc)",
    )
    parser.add_argument(
        "--export-format",
        choices=["rtrc", "text"],
        default="rtrc",
        help="export: output format (default: rtrc)",
    )
    parser.add_argument(
        "--no-characterize",
        action="store_true",
        help="import: skip the alone-run characterization pass",
    )
    parser.add_argument(
        "--override",
        action="store_true",
        help="import: replace an existing library/registry entry",
    )


def cmd_traces(args: argparse.Namespace) -> int:
    verb = _LIBRARY_VERBS.get(args.apps[0])
    if verb is not None:
        from ..traces.library import TraceLibrary

        return verb(TraceLibrary(args.library), args.apps[1:], args)
    from ..workloads.analysis import analyze_trace

    runner = make_runner(args)
    for app in args.apps:
        print(analyze_trace(runner.trace_for(app)).render())
        print()
    return 0


def _import(library, operands: List[str], args: argparse.Namespace) -> int:
    if len(operands) != 1:
        raise ConfigError("usage: traces import PATH [--name N ...]")
    from ..config import SystemConfig

    entry = library.import_file(
        operands[0],
        name=args.name,
        fmt=args.trace_format,
        characterize=not args.no_characterize,
        config=SystemConfig(),
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
    print(f"usable in mixes now, e.g.: repro-dbp explain {entry.name}+lbm")
    return 0


def _list(library, operands: List[str], args: argparse.Namespace) -> int:
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


def _info(library, operands: List[str], args: argparse.Namespace) -> int:
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


def _export(library, operands: List[str], args: argparse.Namespace) -> int:
    if len(operands) != 1:
        raise ConfigError("usage: traces export NAME [--to PATH]")
    name = operands[0]
    suffix = "rtrc" if args.export_format == "rtrc" else "trace"
    dest = args.to if args.to else f"{name}.{suffix}"
    if name in library.entries():
        library.export(name, dest, fmt=args.export_format)
    else:
        _export_generated(name, dest, args)
    print(f"wrote {dest} ({args.export_format})")
    return 0


def _export_generated(app: str, dest: str, args: argparse.Namespace) -> None:
    """Write the trace the run path generates for ``app`` at ``--seed``."""
    from ..cpu.trace import save_trace
    from ..traces.format import save_rtrc

    runner = make_runner(args)
    trace = runner.trace_for(app)
    if args.export_format == "text":
        save_trace(trace, dest)
        return
    provenance = {
        "imported_from": f"synthetic:{app} seed={runner.seed}",
        "source_format": "synthetic",
    }
    save_rtrc(trace, dest, provenance=provenance)


#: First positional tokens that select a trace-library verb rather than
#: the legacy "analyze these apps" form.
_LIBRARY_VERBS = {
    "import": _import,
    "list": _list,
    "info": _info,
    "export": _export,
}

