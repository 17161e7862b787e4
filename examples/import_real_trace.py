#!/usr/bin/env python3
"""Import a real memory trace and run it against a synthetic app.

The repo's workloads are synthetic by default (SPEC traces are
proprietary), but the trace library accepts real dumps: ChampSim-style
``<instr-count> <address> <R|W>`` text, DRAMSim/Ramulator-style
``<address> <cycle> <op>`` text, or the library's own binary ``.rtrc``.
This example walks the whole escape hatch on the bundled sample capture:

1. import ``examples/data/sample_champsim.trace`` into a throwaway
   library directory, made the configured library
   (``REPRO_TRACE_LIBRARY``) for this process,
2. characterize it alone (measured MPKI / row-buffer hit rate /
   bank-level parallelism) on the standard single-core FR-FCFS baseline,
3. run it head-to-head with synthetic ``lbm`` under equal (EBP) and
   dynamic (DBP) bank partitioning.

The same flow is one CLI line per step:

    repro-dbp traces import examples/data/sample_champsim.trace --name sample
    repro-dbp explain sample+lbm ebp dbp

Run:  python examples/import_real_trace.py
"""

import os
import tempfile

from repro.sim.runner import Runner
from repro.traces import TraceLibrary

HORIZON = 150_000
SAMPLE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "sample_champsim.trace"
)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-trace-library-")
    os.environ["REPRO_TRACE_LIBRARY"] = os.path.join(workdir, "library")
    library = TraceLibrary()

    # -- 1 + 2: parse, characterize alone, add to the library ------------
    entry = library.import_file(SAMPLE, name="sample", fmt="champsim")
    print(f"imported {SAMPLE}")
    print(f"  {entry.records} records / {entry.total_insts} instructions")
    print(f"  digest {entry.digest[:16]}…  (library: {library.root})")
    c = entry.characterization
    print(
        f"  measured alone: MPKI={c['mpki']:.2f} RBH={c['rbh']:.2f} "
        f"BLP={c['blp']:.2f} IPC={c['ipc_alone']:.3f}"
    )
    print(f"  class: {'intensive' if entry.intensive else 'light'}")

    # -- 3: the imported trace is now a first-class app name --------------
    runner = Runner(horizon=HORIZON)
    apps = ["sample", "lbm"]
    print(f"\n{'+'.join(apps)} under bank-partitioning approaches:")
    print(f"  {'approach':<8} {'WS':>7} {'HS':>7} {'MS':>7}")
    for approach in ("ebp", "dbp"):
        m = runner.run_apps(apps, approach).metrics
        print(
            f"  {approach:<8} {m.weighted_speedup:>7.3f} "
            f"{m.harmonic_speedup:>7.3f} {m.max_slowdown:>7.3f}"
        )
    print(
        "\nDBP assigns the sample trace its own bank partition sized by its"
        "\nmeasured intensity — the same decision it makes for synthetic apps."
    )


if __name__ == "__main__":
    main()
