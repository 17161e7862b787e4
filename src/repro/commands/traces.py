"""``traces`` — the workload trace library (``REPRO_TRACE_LIBRARY``, else
the default directory): ``traces import`` parses an external
ChampSim/DRAMSim-style dump (or ``.rtrc``), characterizes it alone and
adds it to the library, which makes its name an app in every process;
``traces list`` / ``info`` / ``export`` browse and extract the catalogue
(``export`` also writes a synthetic app's generated trace)."""

from __future__ import annotations

import argparse

from .common import make_runner


def add_traces(sub) -> None:
    traces = sub.add_parser(
        "traces",
        help="trace library: import | list | info | export",
    ).add_subparsers(dest="traces_verb", required=True)

    imp = traces.add_parser(
        "import", help="parse, characterize and add a trace file"
    )
    imp.set_defaults(handler=cmd_import)
    imp.add_argument("path", metavar="PATH", help="trace file to import")
    imp.add_argument(
        "--name",
        default=None,
        help="library name (default: file basename; synthetic app names "
        "are reserved)",
    )
    imp.add_argument(
        "--format",
        dest="trace_format",
        choices=["auto", "champsim", "dramsim", "rtrc", "text"],
        default="auto",
        help="input trace format (default: auto-detect)",
    )
    imp.add_argument(
        "--no-characterize",
        action="store_true",
        help="skip the alone-run characterization pass",
    )
    imp.add_argument(
        "--override",
        action="store_true",
        help="replace an existing library entry of the same name",
    )

    traces.add_parser("list", help="the library catalogue").set_defaults(
        handler=cmd_list
    )

    info = traces.add_parser("info", help="one library trace in detail")
    info.set_defaults(handler=cmd_info)
    info.add_argument("name", metavar="NAME")

    export = traces.add_parser(
        "export", help="write a library trace or a synthetic app's trace"
    )
    export.set_defaults(handler=cmd_export)
    export.add_argument("name", metavar="NAME|APP")
    export.add_argument(
        "--to",
        default=None,
        metavar="PATH",
        help="destination file (default: ./<name>.rtrc)",
    )
    export.add_argument(
        "--export-format",
        choices=["rtrc", "text"],
        default="rtrc",
        help="output format (default: rtrc)",
    )


def cmd_import(args: argparse.Namespace) -> int:
    from ..config import SystemConfig
    from ..traces.library import TraceLibrary

    library = TraceLibrary()
    entry = library.import_file(
        args.path,
        name=args.name,
        fmt=args.trace_format,
        characterize=not args.no_characterize,
        config=SystemConfig(),
        horizon=args.horizon,
        override=args.override,
    )
    kind = "intensive" if entry.intensive else "light"
    print(
        f"imported {entry.name!r} from {args.path} "
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


def cmd_list(args: argparse.Namespace) -> int:
    from ..traces.library import TraceLibrary

    library = TraceLibrary()
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


def cmd_info(args: argparse.Namespace) -> int:
    from ..traces.library import TraceLibrary

    library = TraceLibrary()
    name = args.name
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


def cmd_export(args: argparse.Namespace) -> int:
    from ..traces.library import TraceLibrary
    from ..traces.source import resolve_app

    name = args.name
    suffix = "rtrc" if args.export_format == "rtrc" else "trace"
    dest = args.to if args.to else f"{name}.{suffix}"
    if resolve_app(name) is None:
        _export_generated(name, dest, args)
    else:
        TraceLibrary().export(name, dest, fmt=args.export_format)
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
