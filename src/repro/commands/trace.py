"""Single-mix instrumented runs.

* ``trace``   — run one mix with per-epoch telemetry and print the epoch
  timeline and the policy's decisions table (optionally export or stream
  JSONL); ``--from-jsonl`` renders a stored stream without re-simulating.
* ``perf``    — run one mix with profiling and print the wall-clock
  component profile plus the fast-kernel introspection counters (wake-memo
  short-circuit ratio, best-memo hit rate, scan lengths, cas-floor reuse).
* ``metrics`` — run one mix and print the simulator-wide metrics registry
  snapshot in Prometheus text (or JSON) form.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ConfigError
from .common import add_format, make_runner, print_profile


def add_trace(sub) -> None:
    parser = sub.add_parser(
        "trace",
        help="run one mix with telemetry; print epoch timeline + decisions",
    )
    parser.set_defaults(handler=cmd_trace)
    parser.add_argument(
        "mix",
        nargs="?",
        default=None,
        help="mix name, e.g. M4 (omit with --from-jsonl)",
    )
    parser.add_argument(
        "--approach",
        default="dbp-tcm",
        help="approach to trace (default: dbp-tcm)",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the newest N epochs in the timeline",
    )
    parser.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also export every recorded epoch as JSON lines to PATH",
    )
    parser.add_argument(
        "--stream",
        default=None,
        metavar="PATH",
        help=(
            "stream every epoch to a rotating JSONL file during the run "
            "(history beyond --capacity survives on disk)"
        ),
    )
    parser.add_argument(
        "--from-jsonl",
        default=None,
        metavar="PATH",
        help=(
            "render the timeline and decisions from a stored telemetry "
            "stream instead of simulating"
        ),
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=4096,
        help="telemetry ring-buffer capacity in epochs (default 4096)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also print wall-clock profile (cycles/sec, per-component)",
    )
    parser.add_argument(
        "--spans",
        default=None,
        metavar="PATH",
        help=(
            "record hierarchical wall-clock spans (run, phases, policy "
            "epochs, migration bursts) as Chrome trace events to PATH"
        ),
    )


def add_perf(sub) -> None:
    parser = sub.add_parser(
        "perf",
        help=(
            "run one mix with profiling and print the wall-clock profile "
            "plus the fast-kernel introspection counters"
        ),
    )
    parser.set_defaults(handler=cmd_perf)
    parser.add_argument(
        "mix",
        nargs="?",
        default="M4",
        help="mix name (default: M4, the kernel-benchmark workload)",
    )
    parser.add_argument(
        "--approach",
        default="dbp-tcm",
        help="approach to profile (default: dbp-tcm)",
    )
    add_format(parser)


def add_metrics(sub) -> None:
    parser = sub.add_parser(
        "metrics",
        help="run one mix and print the metrics-registry snapshot",
    )
    parser.set_defaults(handler=cmd_metrics)
    parser.add_argument("mix", help="mix name, e.g. M4")
    parser.add_argument(
        "--approach",
        default="dbp-tcm",
        help="approach to run (default: dbp-tcm)",
    )
    parser.add_argument(
        "--format",
        choices=["prom", "json"],
        default="prom",
        help="Prometheus text (default) or the raw snapshot as JSON",
    )


def _print_telemetry(source, last) -> None:
    from ..telemetry.report import render_decisions, render_timeline

    print("\nEpoch timeline (Q = scheduler quantum, P = policy epoch):")
    print(render_timeline(source, last=last))
    print("\nPolicy decisions:")
    print(render_decisions(source))


def cmd_trace(args: argparse.Namespace) -> int:
    if args.from_jsonl is not None:
        from ..telemetry.stream import load_stream

        if args.mix is not None:
            raise ConfigError(
                "trace --from-jsonl renders a stored stream; "
                "do not also name a mix"
            )
        stored = load_stream(args.from_jsonl)
        print(
            f"telemetry stream {stored.source} "
            f"({stored.segments} segment(s), schema capacity "
            f"{stored.config.capacity})"
        )
        print(
            f"epochs={stored.epochs} quanta={stored.quanta} "
            f"policy_epochs={stored.policy_epochs} "
            f"dropped_epochs={stored.dropped_epochs}"
        )
        _print_telemetry(stored, args.last)
        return 0
    if args.mix is None:
        raise ConfigError("trace needs a mix name (or --from-jsonl PATH)")
    from ..telemetry import SpanTracer, TelemetryConfig, install_tracer
    from ..workloads.mixes import resolve_mix

    mix = resolve_mix(args.mix)
    runner = make_runner(
        args,
        telemetry=TelemetryConfig(
            capacity=args.capacity, stream_path=args.stream
        ),
        profile=args.profile,
    )
    tracer = None
    previous_tracer = None
    if args.spans:
        tracer = SpanTracer("repro-dbp trace")
        previous_tracer = install_tracer(tracer)
    try:
        result = runner.run_mix(mix, args.approach)
    finally:
        if tracer is not None:
            install_tracer(previous_tracer)
            tracer.write(args.spans)
    recorder = runner.last_telemetry
    if recorder is None:  # pragma: no cover - trace never attaches a store
        print("error: no telemetry was recorded", file=sys.stderr)
        return 1
    metrics = result.metrics
    print(
        f"{mix.name} under {args.approach}  "
        f"(horizon {args.horizon}, seed {args.seed})"
    )
    print(
        f"WS={metrics.weighted_speedup:.3f} "
        f"HS={metrics.harmonic_speedup:.3f} "
        f"MS={metrics.max_slowdown:.3f}"
    )
    summary = result.telemetry or {}
    print(
        f"epochs={summary.get('epochs', 0)} "
        f"quanta={summary.get('quanta', 0)} "
        f"policy_epochs={summary.get('policy_epochs', 0)} "
        f"repartitions={summary.get('repartitions', '-')} "
        f"pages_migrated={summary.get('pages_migrated', '-')}"
    )
    if args.profile and runner.last_profile is not None:
        print_profile(runner.last_profile)
    _print_telemetry(recorder, args.last)
    if args.jsonl:
        recorder.dump_jsonl(args.jsonl)
        print(f"\nwrote {len(recorder.records)} epoch records to {args.jsonl}")
    if args.stream and recorder.stream is not None:
        print(
            f"\nstreamed {recorder.stream.records_written} epoch records "
            f"to {args.stream}"
        )
    if args.spans:
        print(f"\nwrote span timeline to {args.spans}")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from ..metrics.kernelstats import (
        kernel_counter_summary,
        render_kernel_summary,
    )
    from ..workloads.mixes import resolve_mix

    mix = resolve_mix(args.mix)
    runner = make_runner(args, profile=True)
    result = runner.run_mix(mix, args.approach)
    summary = kernel_counter_summary(result.metrics_snapshot or {})
    if args.format == "json":
        doc = {
            "mix": mix.name,
            "approach": args.approach,
            "horizon": args.horizon,
            "seed": args.seed,
            "profile": runner.last_profile,
            "kernel_counters": summary,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        f"{mix.name} under {args.approach}  "
        f"(horizon {args.horizon}, seed {args.seed})"
    )
    if runner.last_profile is not None:
        print_profile(runner.last_profile)
    print()
    print(render_kernel_summary(summary))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from ..metrics.registry import prometheus_text
    from ..workloads.mixes import resolve_mix

    mix = resolve_mix(args.mix)
    result = make_runner(args).run_mix(mix, args.approach)
    snapshot = result.metrics_snapshot or {"metrics": []}
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(prometheus_text(snapshot), end="")
    return 0
