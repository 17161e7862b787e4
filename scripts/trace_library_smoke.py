#!/usr/bin/env python3
"""CI smoke test for the workload trace library.

Exercises the acceptance path end-to-end, failing loudly on any drift:

1. **Round-trip fidelity** — generate a synthetic trace, export it to
   ``.rtrc``, import it back as the library app ``lbm-rtrc`` (synthetic
   names are reserved), run the same 2-core mix both ways, and require
   *bit-identical* results: every field of
   :func:`repro.campaign.store.encode_run_result` equal but the app
   names, while the two runs' persistent store keys differ
   (content-digest addressing for the library run).
2. **Real-trace import** — push the bundled ChampSim-style sample
   through import -> characterization -> the library -> a DBP run.

The library is ``<workdir>/library``, made the configured one
(``REPRO_TRACE_LIBRARY``) for this process. Artifacts (the ``.rtrc`` and
the library ``manifest.json``) are left in ``--workdir`` for CI to upload.

Run:  PYTHONPATH=src python scripts/trace_library_smoke.py --workdir /tmp/x
"""

import argparse
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.campaign.store import (  # noqa: E402
    encode_run_result,
    run_key,
    scope_of,
)
from repro.sim.runner import Runner  # noqa: E402
from repro.traces import (  # noqa: E402
    TraceLibrary,
    library_digest,
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


def named(result, renames):
    """``encode_run_result(result)`` with its app names mapped through
    ``renames``."""
    doc = encode_run_result(result)
    metrics = doc["metrics"]
    apps = [renames.get(app, app) for app in metrics["apps"]]
    metrics["mix"], metrics["apps"] = "+".join(apps), apps
    for thread in doc["system"]["threads"].values():
        thread["app"] = renames.get(thread["app"], thread["app"])
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    os.environ["REPRO_TRACE_LIBRARY"] = os.path.join(args.workdir, "library")
    library = TraceLibrary()

    def runner() -> Runner:
        return Runner(horizon=HORIZON, target_insts=TARGET_INSTS)

    # ---- 1: synthetic -> .rtrc -> import -> identical run ---------------
    baseline = runner()
    native = baseline.run_apps(["lbm", "gcc"], "dbp")
    trace = baseline.trace_for("lbm")

    exported = os.path.join(args.workdir, "lbm.rtrc")
    save_rtrc(trace, exported)
    reloaded = load_rtrc(exported)
    check(reloaded.records == trace.records, "rtrc round-trip: records equal")
    check(reloaded.digest == trace.digest, "rtrc round-trip: digest equal")

    library.add(reloaded.renamed("lbm-rtrc"), characterize=False)
    replay = runner()
    imported = replay.run_apps(["lbm-rtrc", "gcc"], "dbp")
    check(
        named(imported, {"lbm-rtrc": "lbm"}) == named(native, {}),
        "imported run bit-identical to synthetic run (every result field "
        "but the app names)",
    )
    digest = library_digest("lbm-rtrc")
    check(digest == trace.digest, "library app resolves to the trace's digest")
    apps = ["lbm-rtrc", "gcc"]
    library_key = run_key(
        replay.config, apps, "dbp", trace_digests={"lbm-rtrc": digest},
        **scope_of(replay),
    )
    check(
        library_key != run_key(replay.config, apps, "dbp", **scope_of(replay)),
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
