#!/usr/bin/env python3
"""CI chaos smoke: a mini-campaign must survive every injected fault.

Drives the supervised executor through every kind of failure with the
deterministic fault harness (:mod:`repro.faults`) and fails loudly unless
every spec ends *resolved* — executed, cached, or failed with a persisted
failure record. No silent losses. One rule settles them all: every failed
attempt costs one retry, and a spec fails after ``retries + 1`` attempts.

Stage 1 (API): a multi-worker campaign where one spec hangs past the
per-run timeout, one throws a transient error, and one is poisoned (fails
every time) and must fail after ``retries + 1`` attempts. A retried spec
re-runs from scratch.

Stage 1b (crash): one spec's worker is killed with a real ``SIGKILL`` (what
``kill -9`` / the OOM killer delivers) next to an in-flight bystander; the
killed spec recovers on a replacement worker, bit-identical to a clean run.

Stage 2 (CLI): the same harness activated through ``REPRO_FAULT_PLAN``,
proving the env-var plumbing reaches CLI-spawned worker processes: a
campaign whose first attempt dies transiently must exit 0 and report the recovery.

A forensics report (per-spec attempt history, failure records, time lost
to faults, workers replaced) is written to ``--workdir`` for CI to upload.

Run:  PYTHONPATH=src python scripts/chaos_smoke.py --workdir /tmp/chaos
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.campaign import ResultStore, RunSpec, execute  # noqa: E402
from repro.campaign.progress import render_report  # noqa: E402
from repro.faults import FaultPlan, FaultSpec  # noqa: E402

HORIZON = 60_000
TARGET_INSTS = 400_000


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[{status}] {label}")
    if not condition:
        sys.exit(1)


def _spec(mix_name: str, approach: str = "shared-frfcfs") -> RunSpec:
    return RunSpec(
        apps=("lbm", "gcc"),
        approach=approach,
        horizon=HORIZON,
        target_insts=TARGET_INSTS,
        mix_name=mix_name,
    )


def _outcome_docs(result) -> list:
    return [
        {
            "label": o.spec.label,
            "mix": o.spec.mix_name,
            "status": o.status,
            "attempts": o.attempts,
            "error": o.error,
            "failure": o.failure.to_doc() if o.failure else None,
        }
        for o in result.outcomes
    ]


def stage_api(workdir: str, jobs: int) -> dict:
    """Hang, transient and poison faults on N workers.

    The SIGKILL lives in :func:`stage_crash`, next to a bystander whose
    only job is to prove it was left alone.
    """
    specs = [
        _spec("HANG"),  # blocks past the per-run timeout
        _spec("FLAKY"),  # transient error on the first attempt
        # Fails every time -> failed after its budget. Its own approach
        # gives it its own store key: the mix name is only a label, so
        # specs that differ in it alone share one entry and one record.
        _spec("POISON", approach="ebp"),
    ]
    plan = FaultPlan(
        seed=5,
        faults=(
            FaultSpec(site="worker.run", kind="hang", match="HANG/*",
                      times=1, seconds=60.0),
            FaultSpec(site="worker.run", kind="transient", match="FLAKY/*",
                      times=1),
            FaultSpec(site="worker.run", kind="deterministic",
                      match="POISON/*", times=99),
        ),
    )
    plan.save(os.path.join(workdir, "fault_plan.json"))
    store = ResultStore(os.path.join(workdir, "store"))
    retries = 2
    started = time.perf_counter()
    result = execute(
        specs,
        jobs=jobs,
        store=store,
        retries=retries,
        timeout=5.0,
        faults=plan,
    )
    wall = time.perf_counter() - started
    print(render_report(result, store=store))

    by_mix = {o.spec.mix_name: o for o in result.outcomes}
    check(result.unresolved == [], "every spec resolved (no silent losses)")
    check(by_mix["HANG"].status == "ok"
          and by_mix["HANG"].failure is not None
          and by_mix["HANG"].failure.attempts[0].error_type
          == "RunTimeoutError",
          "hung spec timed out, then recovered")
    check(by_mix["FLAKY"].status == "ok"
          and by_mix["FLAKY"].failure is not None
          and by_mix["FLAKY"].failure.resolution == "recovered",
          "transient spec recovered with a failure record")
    check(by_mix["POISON"].status == "failed"
          and by_mix["POISON"].attempts == retries + 1
          and len(by_mix["POISON"].failure.attempts) == retries + 1,
          f"poison spec failed after {retries + 1} attempts")
    record = store.get_failure(specs[2].key())
    check(record is not None and record["resolution"] == "failed"
          and len(record["attempts"]) == retries + 1,
          "failure record persisted in the store")
    check(result.time_lost_to_faults > 0,
          "time lost to faults is accounted")
    return {
        "wall_clock": wall,
        "jobs": jobs,
        "pool_respawns": result.pool_respawns,
        "time_lost_to_faults": result.time_lost_to_faults,
        "fault_plan": plan.to_doc(),
        "outcomes": _outcome_docs(result),
    }


def stage_crash(workdir: str, jobs: int) -> dict:
    """A real ``kill -9`` inside a worker, plus an in-flight bystander."""
    specs = [
        _spec("CRASH"),  # worker killed with a real SIGKILL
        _spec("BYSTANDER"),  # in flight on the sibling worker throughout
    ]
    plan = FaultPlan(
        seed=6,
        faults=(
            FaultSpec(site="worker.run", kind="crash", match="CRASH/*",
                      times=1),
        ),
    )
    store = ResultStore(os.path.join(workdir, "crash-store"))
    result = execute(
        specs,
        jobs=jobs,
        store=store,
        retries=1,  # the one SIGKILL costs the one retry
        faults=plan,
    )
    print(render_report(result, store=store))
    by_mix = {o.spec.mix_name: o for o in result.outcomes}
    check(result.unresolved == [],
          "every spec resolved after the SIGKILL")
    check(by_mix["CRASH"].status == "ok",
          "SIGKILLed spec recovered on a replacement worker")
    check(by_mix["CRASH"].attempts == 2
          and [a.error_type for a in by_mix["CRASH"].failure.attempts]
          == ["WorkerDiedError"],
          "SIGKILL cost one retry, like any failed attempt")
    clean = execute(
        [specs[0]], store=ResultStore(os.path.join(workdir, "clean-store"))
    ).outcomes[0].result
    recovered = by_mix["CRASH"].result
    check(recovered.system.engine_events == clean.system.engine_events
          and recovered.metrics_snapshot == clean.metrics_snapshot
          and recovered.shared_ipcs == clean.shared_ipcs,
          "recovered spec is bit-identical to a clean run")
    check(by_mix["BYSTANDER"].status == "ok"
          and by_mix["BYSTANDER"].attempts == 1
          and by_mix["BYSTANDER"].failure is None,
          "in-flight sibling spec was never disturbed")
    check(result.pool_respawns == 1, "exactly the dead worker was replaced")
    return {
        "pool_respawns": result.pool_respawns,
        "time_lost_to_faults": result.time_lost_to_faults,
        "fault_plan": plan.to_doc(),
        "outcomes": _outcome_docs(result),
    }


def stage_cli(workdir: str, jobs: int) -> dict:
    plan = FaultPlan(
        seed=9,
        faults=(
            FaultSpec(site="worker.run", kind="transient",
                      match="M4/shared-frfcfs *", times=1),
        ),
    )
    plan_path = os.path.join(workdir, "cli_fault_plan.json")
    plan.save(plan_path)
    env = dict(os.environ)
    env["REPRO_FAULT_PLAN"] = plan_path
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro",
            "--horizon", str(HORIZON), "campaign",
            "--mixes", "M4", "--approaches", "shared-frfcfs",
            "--jobs", str(jobs),
            "--store", os.path.join(workdir, "cli-store"),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    check(proc.returncode == 0,
          "CLI campaign under REPRO_FAULT_PLAN exited 0")
    check("RECOVERED on attempt 2" in proc.stdout,
          "CLI report names the recovery")
    return {
        "returncode": proc.returncode,
        "fault_plan": plan.to_doc(),
        "recovered_line": [
            line for line in proc.stdout.splitlines()
            if line.startswith("RECOVERED")
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    forensics = {
        "api_stage": stage_api(args.workdir, args.jobs),
        "crash_stage": stage_crash(args.workdir, args.jobs),
        "cli_stage": stage_cli(args.workdir, args.jobs),
    }
    report_path = os.path.join(args.workdir, "chaos_forensics.json")
    with open(report_path, "w") as handle:
        json.dump(forensics, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"forensics report: {report_path}")
    print("chaos smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
