"""The outside-in per-layer ledger: harness-owned spans and layer probes.

The traced pass never feeds the end-to-end numbers. It replays a
workload's op *in this process* through the program's public functions
with a span — name, start, end, parent — around each call into a layer,
and reads the counters the program already exports. Nothing under
``src/`` is instrumented for it; spans inside the program are a later
issue. Layer names are module names (``sim``, ``memctrl``, ``campaign``…).

A span tree has one root per replayed op (``op:<workload>``); probes that
are not part of an op (micro-benchmarks, extra samples) hang under their
own ``probe:*`` roots so they never inflate an op's coverage.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import harness  # noqa: F401  (puts src/ on sys.path)
from repro.telemetry.spans import SpanTracer, merge_traces, now_us, write_trace_file


@dataclass
class Span:
    """One closed (or still open) interval in the ledger."""

    id: int
    parent: Optional[int]
    name: str
    start_us: int
    dur_us: int = 0

    @property
    def seconds(self) -> float:
        return self.dur_us / 1e6

    @property
    def end_us(self) -> int:
        return self.start_us + self.dur_us


class Ledger:
    """A single-threaded span recorder on top of the program's SpanTracer.

    The tracer gives the Perfetto export; the ledger adds what the Chrome
    format leaves implicit — an id and an explicit parent per span — so
    self-times can be computed without re-deriving nesting from timestamps.
    """

    def __init__(self, process_name: str) -> None:
        self.tracer = SpanTracer(process_name)
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, now_us())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.dur_us = max(now_us() - span.start_us, 1)
            self._open.pop()
            self.tracer.complete(
                name, span.start_us, span.dur_us,
                id=span.id, parent=parent, **args,
            )

    # -- analysis -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name`` (any depth)."""
        return sum(s.seconds for s in self.named(name))

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """A span's duration minus the part its child spans cover."""
        covered = sum(c.dur_us for c in self.children(span))
        return max(span.dur_us - covered, 0) / 1e6

    def subtree(self, root: Span) -> List[Span]:
        out, frontier = [], [root]
        while frontier:
            span = frontier.pop()
            out.append(span)
            frontier.extend(self.children(span))
        return out

    def coverage(self, root: Span, reference_seconds: float) -> float:
        """Share of ``reference_seconds`` the spans under ``root`` explain.

        The sum of self-times of every span below the root: time the root
        spent outside any child (harness glue between layer calls) is
        deliberately *not* counted, so a ledger that forgot a layer reads
        low instead of hiding the hole in the root's own duration.
        """
        explained = sum(
            self.self_seconds(s) for s in self.subtree(root) if s is not root
        )
        return explained / reference_seconds if reference_seconds else 0.0

    def nesting_errors(self) -> List[str]:
        """Spans that stick out of their parent (must be none)."""
        by_id = {s.id: s for s in self.spans}
        errors = []
        for span in self.spans:
            if span.parent is None:
                continue
            parent = by_id[span.parent]
            if span.start_us < parent.start_us or span.end_us > parent.end_us:
                errors.append(f"{span.name}#{span.id} outside {parent.name}")
        return errors

    def write(self, path: str, program_docs=()) -> None:
        """One Perfetto-loadable file: harness spans + the program's own."""
        write_trace_file(
            path, merge_traces([self.tracer.to_chrome(), *program_docs])
        )


# ---------------------------------------------------------------------------
# The ledger's vocabulary.
# ---------------------------------------------------------------------------
#: Every per-layer metric with its unit, in report order. BENCHMARK.json
#: declares the same set; test_harness.py holds the two together. A layer
#: a workload never enters reads 0 there (see README.md).
LAYER_UNITS: Dict[str, str] = {
    "cli.python_startup_s": "s",
    "cli.import_s": "s",
    "cli.import_modules": "count",
    "workloads.tracegen_s": "s",
    "workloads.tracegen_us_per_record": "us",
    "traces.rtrc_roundtrip_s": "s",
    "sim.alone_runs_s": "s",
    "sim.alone_share": "ratio",
    "campaign.alone_runs_per_cell": "ratio",
    "sim.build_s": "s",
    "sim.shared_run_s": "s",
    "sim.host_us_per_event": "us",
    "sim.engine_events_per_kcycle": "1/kcycle",
    "sim.agenda_peak": "count",
    "sim.engine_dispatch_ns": "ns",
    "memctrl.decisions_per_command": "ratio",
    "memctrl.wake_memo_hit_ratio": "ratio",
    "memctrl.best_memo_hit_ratio": "ratio",
    "memctrl.scanned_per_scan": "ratio",
    "memctrl.invalidations_per_command": "ratio",
    "sim.profile.controller_share": "ratio",
    "sim.profile.system_share": "ratio",
    "sim.profile.core_share": "ratio",
    "dram.commands_per_kcycle": "1/kcycle",
    "dram.row_hit_ratio": "ratio",
    "dram.cas_floor_skip_ratio": "ratio",
    "dram.bus_utilization": "ratio",
    "cache.access_ns": "ns",
    "mapping.decompose_ns": "ns",
    "osmm.translate_ns": "ns",
    "osmm.allocate_ns": "ns",
    "osmm.pages_migrated": "count",
    "core.repartitions": "count",
    "cpu.retired_kinsts": "kinsts",
    "campaign.store_put_s": "s",
    "campaign.encode_s": "s",
    "campaign.blob_bytes": "bytes",
    "campaign.pool_cpu_overhead": "ratio",
    "campaign.store_get_s": "s",
    "campaign.cached_plan_s_per_spec": "s",
    "results.index_sync_s": "s",
    "results.index_resync_s": "s",
    "results.query_s": "s",
    "results.gates_s": "s",
    "tuner.warm_study_s": "s",
    "tuner.cache_hit_rate": "ratio",
    "ledger.coverage": "ratio",
    "harness.trace_overhead_pct": "%",
    "harness.op_wall_iqr_pct": "%",
    "harness.calib_s": "s",
    "harness.loadavg1": "ratio",
}

#: Layer metrics that are pure functions of (code, seed, horizon): two runs
#: of the same code must print them identically.
EXACT_LAYERS: Tuple[str, ...] = (
    "cli.import_modules",
    "campaign.alone_runs_per_cell",
    "sim.engine_events_per_kcycle",
    "sim.agenda_peak",
    "memctrl.decisions_per_command",
    "memctrl.wake_memo_hit_ratio",
    "memctrl.best_memo_hit_ratio",
    "memctrl.scanned_per_scan",
    "memctrl.invalidations_per_command",
    "dram.commands_per_kcycle",
    "dram.row_hit_ratio",
    "dram.cas_floor_skip_ratio",
    "dram.bus_utilization",
    "osmm.pages_migrated",
    "core.repartitions",
    "cpu.retired_kinsts",
    "tuner.cache_hit_rate",
)

IMPORT_PROBE = (
    "import repro.cli, sys; "
    "print(sum(1 for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.')))"
)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Counters: what the program already exports, summed over a replay's cells.
# ---------------------------------------------------------------------------
def family_total(
    snapshot: Dict[str, object], name: str, **labels: str
) -> float:
    """Sum of one metric family's samples in a registry snapshot."""
    total = 0.0
    for metric in snapshot.get("metrics", []):
        if metric.get("name") != name:
            continue
        for sample in metric.get("samples", []):
            have = sample.get("labels", {})
            if all(have.get(k) == v for k, v in labels.items()):
                total += sample.get("value", 0)
    return total


class SimTally:
    """Counters of the shared runs a replay executed, summed over cells."""

    def __init__(self) -> None:
        self.snapshots: List[Dict[str, object]] = []
        self.results = []
        self.profiles: List[Dict[str, object]] = []

    def add(self, system, result) -> None:
        self.snapshots.append(system.metrics_registry().snapshot())
        self.results.append(result)
        if system.sim_profiler is not None:
            self.profiles.append(system.profile_report())

    def _sum(self, family: str, **labels: str) -> float:
        return sum(family_total(s, family, **labels) for s in self.snapshots)

    def fill(self, layers: Dict[str, float], run_seconds: float) -> None:
        kcycles = sum(r.horizon for r in self.results) / 1000.0
        events = self._sum("repro_sim_engine_events_total")
        commands = self._sum("repro_dram_commands_total")
        wake_hit = self._sum("repro_kernel_wake_memo_total", result="hit")
        wake_miss = self._sum("repro_kernel_wake_memo_total", result="miss")
        best_hit = self._sum("repro_kernel_best_memo_total", result="hit")
        best_miss = self._sum("repro_kernel_best_memo_total", result="miss")
        row_hit = self._sum("repro_ctrl_row_outcomes_total", outcome="hit")
        row_all = self._sum("repro_ctrl_row_outcomes_total")
        floor_skip = self._sum("repro_kernel_cas_floor_total", result="skipped")
        floor_all = self._sum("repro_kernel_cas_floor_total")
        buses = [u for r in self.results for u in r.bus_utilization.values()]
        layers.update({
            "sim.host_us_per_event": ratio(1e6 * run_seconds, events),
            "sim.engine_events_per_kcycle": ratio(events, kcycles),
            "sim.agenda_peak": max(
                family_total(s, "repro_kernel_agenda_peak")
                for s in self.snapshots
            ),
            "memctrl.decisions_per_command": ratio(
                self._sum("repro_kernel_decisions_total"), commands
            ),
            "memctrl.wake_memo_hit_ratio": ratio(
                wake_hit, wake_hit + wake_miss
            ),
            "memctrl.best_memo_hit_ratio": ratio(
                best_hit, best_hit + best_miss
            ),
            "memctrl.scanned_per_scan": ratio(
                self._sum("repro_kernel_scanned_requests_total"),
                self._sum("repro_kernel_scans_total"),
            ),
            "memctrl.invalidations_per_command": ratio(
                self._sum("repro_kernel_invalidations_total"), commands
            ),
            "dram.commands_per_kcycle": ratio(commands, kcycles),
            "dram.row_hit_ratio": ratio(row_hit, row_all),
            "dram.cas_floor_skip_ratio": ratio(floor_skip, floor_all),
            "dram.bus_utilization": statistics.mean(buses),
            "osmm.pages_migrated": self._sum(
                "repro_osmm_pages_migrated_total"
            ),
            "core.repartitions": self._sum("repro_policy_repartitions_total"),
            "cpu.retired_kinsts": self._sum("repro_cpu_retired_insts_total")
            / 1000.0,
        })

    def fill_profile(self, layers: Dict[str, float]) -> None:
        """Component shares of the profiled loop, as the program books them.

        The known ``Core``→``System`` misattribution is recorded as-is.
        """
        wall = sum(p["wall_seconds"] for p in self.profiles)
        by_component: Dict[str, float] = {}
        for profile in self.profiles:
            for row in profile["components"]:
                by_component[row["component"]] = (
                    by_component.get(row["component"], 0.0) + row["seconds"]
                )
        for key, component in (
            ("controller", "ChannelController"),
            ("system", "System"),
            ("core", "Core"),
        ):
            layers[f"sim.profile.{key}_share"] = ratio(
                by_component.get(component, 0.0), wall
            )


# ---------------------------------------------------------------------------
# Probes of layers outside any one simulation.
# ---------------------------------------------------------------------------
def probe_cli(ledger: Ledger, env, layers, samples: int) -> None:
    """``python -c pass`` against ``python -c "import repro.cli"``."""
    starts, imports, modules = [], [], 0.0
    with ledger.span("probe:cli", samples=samples):
        for _ in range(samples):
            with ledger.span("cli.python_startup") as span:
                env.python("-c", "pass")
            starts.append(span.seconds)
            with ledger.span("cli.import") as span:
                proc = env.python("-c", IMPORT_PROBE)
            imports.append(span.seconds)
            modules = float(proc.stdout.strip() or 0)
    layers["cli.python_startup_s"] = statistics.median(starts)
    layers["cli.import_s"] = (
        statistics.median(imports) - layers["cli.python_startup_s"]
    )
    layers["cli.import_modules"] = modules


# ---------------------------------------------------------------------------
# Micro-probes: fixed call counts on fixed seeded streams, in-process.
# Independent of the cells a workload simulates and cheap, so every
# workload that simulates at all takes them.
# ---------------------------------------------------------------------------
def _ns_per_call(ledger: Ledger, name: str, fn, stream) -> float:
    with ledger.span(name, calls=len(stream)):
        started = time.perf_counter()
        for item in stream:
            fn(item)
        elapsed = time.perf_counter() - started
    return 1e9 * elapsed / len(stream)


def probe_micro(ledger: Ledger, seed: int, calls: int) -> Dict[str, float]:
    """ns per call of the leaf layers every memory access goes through."""
    from repro.cache import Cache
    from repro.config import SystemConfig
    from repro.mapping import AddressMap
    from repro.osmm import ColorAwareAllocator, PageTable
    from repro.sim.engine import Engine

    rng = random.Random(seed)
    config = SystemConfig()
    amap = AddressMap(config.organization, config.osmm.page_size)
    # A working set four times the cache, so hits and evictions both occur.
    cache_lines = config.cache.size_bytes // config.cache.line_size
    vlines = [rng.randrange(4 * cache_lines) for _ in range(calls)]
    plines = [rng.randrange(1 << amap.total_line_bits) for _ in range(calls)]
    out: Dict[str, float] = {}
    with ledger.span("probe:micro", calls=calls):
        cache = Cache(config.cache)
        out["cache.access_ns"] = _ns_per_call(
            ledger, "cache.access", lambda v: cache.access(v, False), vlines
        )
        out["mapping.decompose_ns"] = _ns_per_call(
            ledger, "mapping.decompose_line", amap.decompose_line, plines
        )
        table = PageTable(0, ColorAwareAllocator(amap), amap)
        out["osmm.translate_ns"] = _ns_per_call(
            ledger, "osmm.translate_line", table.translate_line, vlines
        )
        allocator = ColorAwareAllocator(amap)
        threads = [t & 3 for t in range(min(calls, amap.frames_total // 2))]
        out["osmm.allocate_ns"] = _ns_per_call(
            ledger, "osmm.allocate", allocator.allocate, threads
        )
        engine = Engine()
        noop = _noop
        with ledger.span("sim.engine_dispatch", calls=calls):
            started = time.perf_counter()
            for cycle in range(calls):
                engine.schedule(cycle, noop)
            engine.run()
            elapsed = time.perf_counter() - started
        out["sim.engine_dispatch_ns"] = 1e9 * elapsed / calls
    return out


def _noop(cycle: int) -> None:
    return None


def probe_rtrc(ledger: Ledger, trace, path: str) -> float:
    """Seconds to write and re-read one trace in the library's format."""
    from repro.traces.format import load_rtrc, save_rtrc

    with ledger.span("probe:rtrc"):
        with ledger.span("traces.rtrc_roundtrip", records=len(trace)) as span:
            save_rtrc(trace, path)
            load_rtrc(path)
    return span.seconds
