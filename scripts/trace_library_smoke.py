#!/usr/bin/env python3
"""CI smoke test for the workload trace library.

Exercises the acceptance path end-to-end, failing loudly on any drift:

1. **Round-trip fidelity** — generate a synthetic trace, export it to
   ``.rtrc``, import it back as a library app shadowing the same name,
   run the same 2-core mix both ways, and require *bit-identical*
   results (compared by :func:`repro.campaign.store.result_digest`)
   while the two runs' persistent store keys differ (content-digest
   addressing for the library run).
2. **Real-trace import** — push the bundled ChampSim-style sample
   through import -> characterization -> registration -> a DBP run.

Artifacts (the ``.rtrc`` and the library ``manifest.json``) are left in
``--workdir`` for CI to upload.

Run:  PYTHONPATH=src python scripts/trace_library_smoke.py --workdir /tmp/x
"""

import argparse
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.campaign.store import result_digest, run_key, scope_of  # noqa: E402
from repro.sim.runner import Runner  # noqa: E402
from repro.traces import (  # noqa: E402
    TraceLibrary,
    library_digests,
    load_rtrc,
    save_rtrc,
)

HORIZON = 60_000
TARGET_INSTS = 400_000
SAMPLE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "examples", "data", "sample_champsim.trace",
)


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[{status}] {label}")
    if not condition:
        sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    library = TraceLibrary(os.path.join(args.workdir, "library"))

    def runner() -> Runner:
        return Runner(horizon=HORIZON, target_insts=TARGET_INSTS)

    # ---- 1: synthetic -> .rtrc -> import -> identical run ---------------
    baseline = runner()
    native = baseline.run_apps(["lbm", "gcc"], "dbp")
    synthetic_key = run_key(
        baseline.config, ["lbm", "gcc"], "dbp", **scope_of(baseline)
    )
    trace = baseline.trace_for("lbm")

    exported = os.path.join(args.workdir, "lbm.rtrc")
    save_rtrc(trace, exported)
    reloaded = load_rtrc(exported)
    check(reloaded.records == trace.records, "rtrc round-trip: records equal")
    check(reloaded.digest == trace.digest, "rtrc round-trip: digest equal")

    library.add(reloaded, characterize=False, override=True)
    replay = runner()
    imported = replay.run_apps(["lbm", "gcc"], "dbp")
    check(
        result_digest(imported) == result_digest(native),
        "imported run bit-identical to synthetic run (result digest)",
    )
    library_key = run_key(
        replay.config, ["lbm", "gcc"], "dbp",
        trace_digests=library_digests(["lbm", "gcc"]),
        **scope_of(replay),
    )
    check(
        library_key != synthetic_key,
        "store key of the library run is content-digest addressed",
    )

    # ---- 2: real ChampSim-style dump, end to end -------------------------
    entry = library.import_file(SAMPLE, name="sample", fmt="champsim",
                                horizon=HORIZON)
    check(entry.records > 0, f"sample import parsed {entry.records} records")
    check(
        "mpki" in entry.characterization,
        f"sample characterized (MPKI={entry.characterization.get('mpki', 0):.2f})",
    )
    result = runner().run_apps(["sample", "gcc"], "dbp")
    check(
        result.metrics.weighted_speedup > 0,
        f"sample+gcc ran under DBP (WS={result.metrics.weighted_speedup:.3f})",
    )
    check(
        os.path.isfile(library.manifest_path),
        f"library manifest persisted at {library.manifest_path}",
    )
    print("trace library smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
