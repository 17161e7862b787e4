"""``explain`` — run one mix and show what happened, section by section.

``repro-dbp explain MIX [APPROACH ...] --show SECTIONS`` simulates the mix
once per approach and prints the chosen sections, in this order:

* ``summary``   — WS/HS/MS and per-app slowdowns, one row per approach
  (the default);
* ``profile``   — the wall-clock profile of the event loop by component;
* ``kernel``    — the decision kernel's introspection counters (wake-memo
  short-circuits, best-memo hits, scan lengths, cas-floor reuse);
* ``timeline``  — one row per epoch boundary (``--last N``: newest N);
* ``decisions`` — per policy epoch, each thread's bank demand and the
  colours it got, plus the scheduler's state;
* ``metrics``   — the metrics-registry snapshot as bare Prometheus text.

``--log PATH`` writes the run's epoch log (one versioned JSON document
holding every epoch record); ``--from-log PATH`` renders the timeline and
decisions of such a log without simulating anything.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from typing import Dict, List

from .common import at_least, make_runner, print_profile

SECTIONS = ("summary", "profile", "kernel", "timeline", "decisions", "metrics")
#: The sections an epoch log can render on its own.
LOG_SECTIONS = ("timeline", "decisions")
DEFAULT_APPROACHES = ("shared-frfcfs", "ebp", "dbp")


def _sections(text: str) -> frozenset:
    names = frozenset(part.strip() for part in text.split(","))
    unknown = sorted(names - set(SECTIONS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown section(s) {', '.join(map(repr, unknown))}; "
            f"choose from {','.join(SECTIONS)}"
        )
    return names


def add_explain(sub) -> None:
    parser = sub.add_parser(
        "explain",
        help=(
            "run one mix and show its summary, epoch timeline, policy "
            "decisions, profile, kernel counters or metrics"
        ),
    )
    parser.set_defaults(handler=cmd_explain, usage_error=parser.error)
    parser.add_argument(
        "mix",
        nargs="?",
        default=None,
        metavar="MIX",
        help="mix name, e.g. M4 (omit with --from-log)",
    )
    parser.add_argument(
        "approaches",
        nargs="*",
        default=list(DEFAULT_APPROACHES),
        metavar="APPROACH",
        help=f"approach names (default: {' '.join(DEFAULT_APPROACHES)})",
    )
    parser.add_argument(
        "--show",
        type=_sections,
        default=None,
        metavar="SECTIONS",
        help=(
            f"comma list of {','.join(SECTIONS)} (default: summary; "
            f"with --from-log: {','.join(LOG_SECTIONS)})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--last",
        type=at_least(1),
        default=None,
        metavar="N",
        help="show only the newest N epochs in the timeline",
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
    parser.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="write the run's epoch log to PATH (needs exactly one approach)",
    )
    parser.add_argument(
        "--from-log",
        default=None,
        metavar="PATH",
        help=(
            "render the timeline and decisions of an epoch log instead of "
            "simulating (takes no mix)"
        ),
    )


def _epoch_digest(records: List[Dict[str, object]]) -> str:
    quanta = sum(r["fired_quantum"] for r in records)
    policy_epochs = sum(r["fired_policy"] for r in records)
    return (
        f"epochs={len(records)} quanta={quanta} policy_epochs={policy_epochs}"
    )


def _print_epochs(records, show, last) -> None:
    from ..telemetry.report import render_decisions, render_timeline

    if "timeline" in show:
        print("\nEpoch timeline (Q = scheduler quantum, P = policy epoch):")
        print(render_timeline(records, last=last))
    if "decisions" in show:
        print("\nPolicy decisions:")
        print(render_decisions(records))


def _epoch_sections(records, show, last) -> Dict[str, object]:
    doc: Dict[str, object] = {}
    if "timeline" in show:
        doc["timeline"] = records[-last:] if last else records
    if "decisions" in show:
        doc["decisions"] = [r for r in records if r.get("policy")]
    return doc


def cmd_explain(args: argparse.Namespace) -> int:
    if args.from_log is not None:
        return _explain_log(args)
    if args.mix is None:
        args.usage_error("explain needs a MIX (or --from-log PATH)")
    show = args.show or frozenset({"summary"})
    approaches = list(dict.fromkeys(args.approaches))
    if args.log and len(approaches) != 1:
        args.usage_error("--log writes one run's epoch log: name one APPROACH")
    from ..workloads.mixes import resolve_mix

    mix = resolve_mix(args.mix)
    runner = make_runner(
        args,
        telemetry=bool(args.log) or not show.isdisjoint(LOG_SECTIONS),
        profile="profile" in show,
    )
    tracer = previous_tracer = None
    if args.spans:
        from ..telemetry import SpanTracer, install_tracer

        tracer = SpanTracer("repro-dbp explain")
        previous_tracer = install_tracer(tracer)
    try:
        if args.format == "json":
            _explain_json(args, mix, approaches, show, runner)
        else:
            _explain_text(args, mix, approaches, show, runner)
    finally:
        if tracer is not None:
            install_tracer(previous_tracer)
            tracer.write(args.spans)
    if args.format == "text" and args.spans:
        print(f"\nwrote span timeline to {args.spans}")
    return 0


def _explain_text(args, mix, approaches, show, runner) -> None:
    from ..metrics.kernelstats import (
        kernel_counter_summary,
        render_kernel_summary,
    )
    from ..metrics.registry import prometheus_text

    epochs = not show.isdisjoint(LOG_SECTIONS)
    if "summary" in show:
        print(f"{mix.name}: {' '.join(mix.apps)}  [{mix.category}]")
        header = f"{'approach':<14} {'WS':>7} {'HS':>7} {'MS':>7}  slowdowns"
        print(header)
        print("-" * len(header))
    for index, approach in enumerate(approaches):
        result = runner.run_mix(mix, approach)
        metrics = result.metrics
        if "summary" in show:
            downs = " ".join(
                f"{mix.apps[t]}={s:.2f}" for t, s in metrics.slowdowns.items()
            )
            print(
                f"{approach:<14} {metrics.weighted_speedup:>7.3f} "
                f"{metrics.harmonic_speedup:>7.3f} "
                f"{metrics.max_slowdown:>7.3f}  {downs}"
            )
        elif epochs or not show.isdisjoint(("profile", "kernel")):
            if index:
                print()
            print(
                f"{mix.name} under {approach}  "
                f"(horizon {args.horizon}, seed {args.seed})"
            )
            if epochs:
                print(metrics.summary)
        if epochs:
            summary = result.telemetry
            print(
                f"{_epoch_digest(runner.last_telemetry.records)} "
                f"repartitions={summary.get('repartitions', '-')} "
                f"pages_migrated={summary.get('pages_migrated', '-')}"
            )
        if "profile" in show:
            print_profile(runner.last_profile)
        if "kernel" in show:
            print()
            print(
                render_kernel_summary(
                    kernel_counter_summary(result.metrics_snapshot)
                )
            )
        if epochs:
            _print_epochs(runner.last_telemetry.records, show, args.last)
        if "metrics" in show:
            print(prometheus_text(result.metrics_snapshot), end="")
    if args.log:
        _write_log(args, mix, approaches[0], runner.last_telemetry.records)
        print(
            f"\nwrote {len(runner.last_telemetry.records)} epoch records "
            f"to {args.log}"
        )


def _explain_json(args, mix, approaches, show, runner) -> None:
    from ..metrics.kernelstats import kernel_counter_summary

    runs = []
    for approach in approaches:
        result = runner.run_mix(mix, approach)
        run: Dict[str, object] = {"approach": approach}
        if "summary" in show:
            run["summary"] = {
                **asdict(result.metrics.summary),
                "slowdowns": {
                    mix.apps[t]: s for t, s in result.metrics.slowdowns.items()
                },
            }
        if "profile" in show:
            run["profile"] = runner.last_profile
        if "kernel" in show:
            run["kernel"] = kernel_counter_summary(result.metrics_snapshot)
        if runner.last_telemetry is not None:
            run.update(
                _epoch_sections(runner.last_telemetry.records, show, args.last)
            )
        if "metrics" in show:
            run["metrics"] = result.metrics_snapshot
        runs.append(run)
    if args.log:
        _write_log(args, mix, approaches[0], runner.last_telemetry.records)
    doc = {
        "mix": mix.name,
        "apps": list(mix.apps),
        "horizon": args.horizon,
        "seed": args.seed,
        "runs": runs,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def _write_log(args, mix, approach, records) -> None:
    from ..telemetry.recorder import write_epoch_log

    write_epoch_log(
        args.log,
        records,
        mix=mix.name,
        approach=approach,
        horizon=args.horizon,
        seed=args.seed,
    )


def _explain_log(args: argparse.Namespace) -> int:
    """Render an epoch log; loads no simulator module."""
    from ..telemetry.recorder import read_epoch_log

    if args.mix is not None:
        args.usage_error("--from-log renders a written log: name no MIX")
    if args.log or args.spans:
        args.usage_error("--from-log simulates nothing: no --log or --spans")
    show = args.show or frozenset(LOG_SECTIONS)
    extra = sorted(show - set(LOG_SECTIONS))
    if extra:
        args.usage_error(
            f"an epoch log holds only {','.join(LOG_SECTIONS)}; "
            f"simulate the mix for {','.join(extra)}"
        )
    doc = read_epoch_log(args.from_log)
    records = doc["records"]
    if args.format == "json":
        run = {"approach": doc.get("approach")}
        run.update(_epoch_sections(records, show, args.last))
        out = {key: doc.get(key) for key in ("mix", "horizon", "seed")}
        print(json.dumps({**out, "runs": [run]}, indent=2, sort_keys=True))
        return 0
    print(
        f"{doc.get('mix')} under {doc.get('approach')}  "
        f"(horizon {doc.get('horizon')}, seed {doc.get('seed')})"
    )
    print(f"{_epoch_digest(records)}  (epoch log {args.from_log})")
    _print_epochs(records, show, args.last)
    return 0
