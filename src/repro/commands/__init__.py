"""``repro-dbp`` subcommands, one module per subsystem.

Each module builds its subparsers with plain argparse and binds a handler
with ``set_defaults(handler=...)``; :mod:`repro.cli` lists them in help
order and calls the selected one. At module level the modules import
argparse, :mod:`repro.errors`, the mix-name table (one help string) and
each other — a handler imports the subsystem it drives when it runs, so a
command costs what it uses (see DESIGN.md, "CLI registry and import
boundary").
"""
