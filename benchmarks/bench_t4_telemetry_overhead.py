"""T4 (tooling): telemetry recorder overhead and result neutrality.

Two claims guard the telemetry layer's "free when off, cheap when on"
contract:

* telemetry must never change what the simulation computes — a traced run
  and an untraced run produce identical :class:`SystemResult`s;
* disabled telemetry leaves no probes on the controllers (structurally
  zero per-request cost), and enabled telemetry stays within a small
  constant factor of the untraced run;
* the epoch log inherits both guarantees: a run whose records are then
  written to disk (what ``explain --log`` does) is still bit-identical to
  the untraced run, the log holds every epoch, and run plus write stays
  within the same overhead bound;
* span tracing rides the same contract: an installed flight-recorder
  tracer leaves results bit-identical, records the epoch boundaries,
  and — since its instrumentation only fires at those rare boundaries —
  its overhead stays within a 5% budget (the telemetry bound is far
  looser only because the recorder does real per-epoch work).
"""

from __future__ import annotations

import time

from repro.config import SystemConfig
from repro.core.dbp import DBPConfig, DynamicBankPartitioning
from repro.sim.system import System
from repro.telemetry import (
    SpanTracer,
    TelemetryRecorder,
    install_tracer,
    read_epoch_log,
    uninstall_tracer,
    write_epoch_log,
)
from repro.workloads import AppProfile, generate_trace

# Not a multiple of either cadence: a boundary landing exactly on the
# horizon would (correctly) not fire, breaking the floor-division asserts.
HORIZON = 85_000
EPOCH = 20_000
QUANTUM = 10_000

HEAVY = AppProfile("heavy", 25.0, 0.7, 4, 0.3, 1)
LIGHT = AppProfile("light", 0.4, 0.6, 2, 0.2, 1)


def _system(recorder=None):
    config = SystemConfig().with_scheduler("tcm", quantum_cycles=QUANTUM)
    profiles = [HEAVY, LIGHT] * ((config.num_cores + 1) // 2)
    traces = [
        generate_trace(profile, seed=1, target_insts=500_000)
        for profile in profiles[: config.num_cores]
    ]
    policy = DynamicBankPartitioning(DBPConfig(epoch_cycles=EPOCH))
    return System(
        config, traces, horizon=HORIZON, policy=policy, telemetry=recorder
    )


def _timed_run(recorder=None, log_path=None):
    system = _system(recorder)
    started = time.perf_counter()
    result = system.run()
    if log_path is not None:
        write_epoch_log(log_path, recorder.records, horizon=HORIZON)
    return result, time.perf_counter() - started, system


def bench_t4_telemetry_overhead(benchmark, tmp_path):
    log_path = tmp_path / "t4-epochs.json"

    def body():
        # Interleave off/on/log runs and keep the best of two so a
        # scheduler hiccup on one run cannot fake an overhead regression.
        walls = {"off": [], "on": [], "log": [], "spans": []}
        results = {}
        recorders = []
        tracers = []
        # Checked before a run: a finished System releases its listeners.
        assert all(len(c._listeners) == 1 for c in _system().controllers)
        for _ in range(2):
            result, wall, _system_off = _timed_run()
            walls["off"].append(wall)
            results["off"] = result
            recorder = TelemetryRecorder()
            result, wall, _system_on = _timed_run(recorder)
            walls["on"].append(wall)
            results["on"] = result
            recorders.append(recorder)
            # Record, then write the epoch log: the explain --log path.
            result, wall, _system_log = _timed_run(
                TelemetryRecorder(), log_path
            )
            walls["log"].append(wall)
            results["log"] = result
            # Flight-recorder spans, no telemetry: isolates the tracer.
            tracer = SpanTracer("bench-t4")
            install_tracer(tracer)
            try:
                result, wall, _system_spans = _timed_run()
            finally:
                uninstall_tracer()
            walls["spans"].append(wall)
            results["spans"] = result
            tracers.append(tracer)
        return walls, results, recorders, tracers

    walls, results, recorders, tracers = benchmark.pedantic(
        body, rounds=1, iterations=1
    )

    # Telemetry must be invisible to the simulation itself — recorded in
    # memory, written out as an epoch log, and with the span tracer
    # installed.
    for mode in ("on", "log", "spans"):
        assert results[mode].threads == results["off"].threads
        assert results[mode].total_commands == results["off"].total_commands
        assert results[mode].pages_migrated == results["off"].pages_migrated

    # ... while actually recording the run.
    summary = recorders[-1].summary()
    assert summary["policy_epochs"] == HORIZON // EPOCH
    assert summary["quanta"] == HORIZON // QUANTUM

    # The log holds every epoch, exactly as recorded.
    stored = read_epoch_log(log_path)["records"]
    assert len(stored) == summary["epochs"]
    assert stored == recorders[-1].records

    # ... and the tracer recorded every epoch boundary on each pass.
    for tracer in tracers:
        epoch_spans = [
            e
            for e in tracer.events()
            if e.get("ph") == "X"
            and e["name"] in ("policy-epoch", "quantum")
        ]
        assert len(epoch_spans) == HORIZON // QUANTUM

    off = min(walls["off"])
    on = min(walls["on"])
    logged = min(walls["log"])
    spanned = min(walls["spans"])
    overhead = (on - off) / off if off else 0.0
    log_overhead = (logged - off) / off if off else 0.0
    span_overhead = (spanned - off) / off if off else 0.0
    print()
    print(
        f"T4 telemetry overhead: off={off * 1e3:.1f} ms "
        f"on={on * 1e3:.1f} ms (+{overhead * 100.0:.1f}%) "
        f"log={logged * 1e3:.1f} ms (+{log_overhead * 100.0:.1f}%) "
        f"spans={spanned * 1e3:.1f} ms (+{span_overhead * 100.0:.1f}%)"
    )
    # Generous CI-noise bound; typical overhead is a few percent.
    assert overhead < 0.5
    assert log_overhead < 0.5
    # Span instrumentation fires only at epoch boundaries, so it gets a
    # much tighter budget than the recorder, which does real per-epoch
    # work: 5% over best-of-two interleaved runs.
    assert span_overhead < 0.05
