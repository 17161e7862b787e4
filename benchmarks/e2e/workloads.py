"""The four benchmark workloads.

Each workload's *op* is one round of identical, deterministic work. The
program is driven only from outside: ``repro-dbp`` subprocesses and calls
into public functions. ``--seed`` reaches the program as its
workload-generation seed and nothing else identifies the workload to it.

================  =========================================================
``cold_cell``     what a user runs: process start to one indexed result
``campaign_grid`` a 2x2 grid on two pool workers that share three apps
``kernel_shared`` the simulation loop alone, inputs prebuilt in set-up
``warm_serve``    the same platform layers read instead of written
================  =========================================================

A workload observes every round's output *outside* the timed region. The
warm-up round's observation becomes the reference; a later round whose
observation differs, or that breaks an absolute rule (exit code, entry
count, 100 % cached), is a failed op.
"""

from __future__ import annotations

import json
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import OUT, Env, Rounds, iqr_share, timed_rounds
from ledger import (
    IMPORT_PROBE,
    LAYER_UNITS,
    Ledger,
    SimTally,
    probe_cli,
    probe_micro,
    probe_rtrc,
    ratio,
)


class CheckFailed(Exception):
    """A round's output broke a rule; the message says which."""


# ---------------------------------------------------------------------------
class Workload:
    """Shared lifecycle: set-up, the timed op, its check, the traced pass."""

    name = ""
    #: Simulated (mix, approach) cells one round delivers.
    cells = 0

    def __init__(
        self, env: Env, seed: int, horizon: int, micro_calls: int = 200_000
    ) -> None:
        self.env = env
        self.seed = seed
        self.horizon = horizon
        #: Calls per leaf-layer micro-probe in the traced pass.
        self.micro_calls = micro_calls
        self.reference: Optional[Dict[str, object]] = None

    # -- lifecycle ------------------------------------------------------
    def prepare(self) -> None:
        """Build whatever the op needs that is not part of the op."""

    def op(self):
        raise NotImplementedError

    def traced_op(self):
        """The op with the program's own tracing flag turned on."""
        raise NotImplementedError

    def observe(self, output) -> Dict[str, object]:
        """Digest one round's output; raises :class:`CheckFailed`.

        The returned dict must repeat exactly from round to round; its
        ``"sim"`` entry lists (weighted speedup, maximum slowdown) per cell.
        """
        raise NotImplementedError

    def setup(self) -> None:
        """Everything before the first timed round (all of ``setup_s``)."""
        self.env.byte_compile()
        self.prepare()
        try:
            self.reference = self.observe(self.op())
        except CheckFailed as error:
            raise CheckFailed(f"warm-up round: {error}") from None

    def check(self, output) -> Optional[str]:
        try:
            seen = self.observe(output)
        except CheckFailed as error:
            return str(error)
        for key, expected in self.reference.items():
            if seen.get(key) != expected:
                return f"{key} differs from the warm-up round's"
        return None

    def sim_stats(self) -> Tuple[float, float]:
        """(geomean WS, geomean MS) over the round's cells — simulated."""
        from repro.results import geomean

        cells = self.reference["sim"]
        return (
            geomean([ws for ws, _ms in cells]),
            geomean([ms for _ws, ms in cells]),
        )

    # -- traced pass ----------------------------------------------------
    def replay(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        """Replay one op in-process, a span around each layer call."""
        raise NotImplementedError

    def probes(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        """Layer samples taken outside the op replay."""

    def program_spans(self) -> list:
        """Trace documents the program wrote during :meth:`traced_op`."""
        return []

    def notes(self) -> List[str]:
        """Things a reader of the report should know about this run."""
        return []

    def trace(self, rounds: int) -> Dict[str, float]:
        """The per-layer ledger for this workload (needs :meth:`setup`).

        ``rounds`` untraced ops, then as many with the program's own
        tracing flag on (their difference is the tracing overhead), then
        one in-process replay under spans, then the out-of-op probes.
        Leaves the rounds on ``trace_rounds`` and writes one Perfetto file.
        """
        layers = dict.fromkeys(LAYER_UNITS, 0.0)
        self.untraced = timed_rounds(self.op, self.check, 0, rounds, rounds)
        traced = timed_rounds(self.traced_op, self.check, 0, rounds, rounds)
        ledger = Ledger(f"bench-e2e {self.name}")
        with ledger.span(f"op:{self.name}", seed=self.seed) as root:
            self.replay(ledger, layers)
        self.probes(ledger, layers)
        layers["ledger.coverage"] = ledger.coverage(
            root, self.untraced.wall_p50
        )
        layers["sim.alone_share"] = ratio(
            layers["sim.alone_runs_s"],
            sum(c.seconds for c in ledger.children(root)),
        )
        layers["harness.trace_overhead_pct"] = 100.0 * (
            traced.wall_p50 / self.untraced.wall_p50 - 1.0
        )
        layers["harness.op_wall_iqr_pct"] = 100.0 * iqr_share(
            self.untraced.walls
        )
        self.trace_rounds = Rounds(
            self.untraced.walls + traced.walls,
            self.untraced.cpus + traced.cpus,
            self.untraced.failures + traced.failures,
        )
        OUT.mkdir(exist_ok=True)
        ledger.write(
            str(OUT / f"{self.name}.perfetto.json"), self.program_spans()
        )
        return layers


# ---------------------------------------------------------------------------
# Shared pieces of the in-process replays.
# ---------------------------------------------------------------------------
def _system_config(approach: str, cores: int):
    from repro.config import SystemConfig
    from repro.core.integration import get_approach

    spec = get_approach(approach)
    config = replace(SystemConfig(), num_cores=cores).with_scheduler(
        spec.scheduler, **spec.scheduler_params
    )
    return spec, config


def _shared_run(approach, traces, horizon, ledger=None, tally=None,
                profile=False):
    """Build and run one shared system; spans and counters only if asked."""
    from repro.sim.system import System

    def span(name):
        if ledger is None:
            return nullcontext()
        return ledger.span(name, approach=approach)

    spec, config = _system_config(approach, len(traces))
    with span("sim.build"):
        system = System(
            config, traces, horizon=horizon,
            policy=spec.make_policy(), profile=profile,
        )
    with span("sim.shared_run"):
        result = system.run()
    if tally is not None:
        tally.add(system, result)
    return result


# ---------------------------------------------------------------------------
class CampaignWorkload(Workload):
    """One ``repro-dbp campaign`` into an empty store, fresh interpreter."""

    mixes: Tuple[str, ...] = ()
    approaches: Tuple[str, ...] = ()
    jobs = 1
    #: Rounds whose store was complete but whose index needed a sync.
    lost_upserts = 0

    @property
    def cells(self) -> int:  # type: ignore[override]
        return len(self.mixes) * len(self.approaches)

    def _campaign(self, store: Path, jobs: int, *extra: object):
        return self.env.repro(
            "--horizon", self.horizon, "--seed", self.seed, "campaign",
            "--mixes", *self.mixes, "--approaches", *self.approaches,
            "--jobs", jobs, "--store", store, "--quiet", *extra,
        )

    def op(self, *extra: object, jobs: Optional[int] = None):
        store = self.env.fresh_dir("store")
        return self._campaign(store, jobs or self.jobs, *extra), store

    def traced_op(self):
        self._spans_path = self.env.tmp / f"{self.name}.program-spans.json"
        return self.op("--spans", self._spans_path)

    def observe(self, output) -> Dict[str, object]:
        proc, store = output
        try:
            if proc.returncode != 0:
                raise CheckFailed(
                    f"exit code {proc.returncode}: {proc.stderr[-300:]}"
                )
            entries, put_rows, synced_rows = read_store(store)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        # The put-time index hook is best-effort by the program's own
        # contract (a lost upsert is repaired by the next sync), and two
        # pool workers creating index.sqlite at the same instant do lose
        # one now and then. With one writer there is no such excuse.
        if put_rows != self.cells:
            self.lost_upserts += 1
        indexed = synced_rows if self.jobs > 1 else put_rows
        if len(entries) != self.cells or indexed != self.cells:
            raise CheckFailed(
                f"store holds {len(entries)} entries and {indexed} index "
                f"rows, expected {self.cells} of each"
            )
        keys = sorted(entries)
        return {
            "digests": {k: entries[k][0] for k in keys},
            "sim": [entries[k][1:] for k in keys],
        }

    def notes(self) -> List[str]:
        if not self.lost_upserts:
            return []
        return [
            f"{self.lost_upserts} round(s) lost a put-time index upsert "
            f"(pool workers racing to create index.sqlite); sync repaired it"
        ]

    # -- traced pass ----------------------------------------------------
    def program_spans(self) -> list:
        from repro.telemetry.spans import load_trace_file

        return [load_trace_file(str(self._spans_path))]

    def replay(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        """What ``campaign --jobs 1`` does for this grid, layer by layer."""
        from repro.campaign import ResultStore, RunSpec
        from repro.metrics import slowdowns, summarize
        from repro.sim.runner import RunResult, Runner, WorkloadRunMetrics
        from repro.workloads import resolve_mix

        with ledger.span("cli.import"):
            self.env.python("-c", IMPORT_PROBE)
        runner = Runner(horizon=self.horizon, seed=self.seed)
        store = ResultStore(self.env.fresh_dir("replay-store"))
        tally = SimTally()
        generated: Dict[str, int] = {}
        blob_bytes: List[int] = []
        run_results = []
        self._first_cell = None
        for mix_name in self.mixes:
            mix = resolve_mix(mix_name)
            for approach in self.approaches:
                # The Runner caches traces and alone runs, so — exactly as
                # in one campaign process — only first sightings cost.
                with ledger.span("workloads.tracegen", mix=mix.name):
                    traces = [runner.trace_for(app) for app in mix.apps]
                for app, trace in zip(mix.apps, traces):
                    generated.setdefault(app, len(trace))
                result = _shared_run(
                    approach, traces, self.horizon, ledger, tally
                )
                with ledger.span("sim.alone_runs", mix=mix.name):
                    alone = {
                        t: runner.alone_ipc(app)
                        for t, app in enumerate(mix.apps)
                    }
                shared = {t: result.threads[t].ipc for t in alone}
                run_result = RunResult(
                    metrics=WorkloadRunMetrics(
                        mix=mix.name,
                        approach=approach,
                        summary=summarize(alone, shared),
                        slowdowns=slowdowns(alone, shared),
                        apps=tuple(mix.apps),
                    ),
                    system=result,
                    alone_ipcs=alone,
                    shared_ipcs=shared,
                    metrics_snapshot=tally.snapshots[-1],
                )
                run_results.append(run_result)
                spec = RunSpec(
                    apps=tuple(mix.apps), approach=approach, seed=self.seed,
                    horizon=self.horizon, mix_name=mix.name,
                )
                describe = {
                    "mix": mix.name, "apps": list(mix.apps),
                    "approach": approach, "seed": self.seed,
                    "horizon": self.horizon,
                    "target_insts": spec.target_insts,
                }
                with ledger.span("campaign.store_put", approach=approach):
                    path = store.put(
                        spec.key(), run_result, 0.0, describe=describe
                    )
                blob_bytes.append(path.stat().st_size)
                if self._first_cell is None:
                    self._first_cell = (approach, traces)
        tally.fill(layers, ledger.total("sim.shared_run"))
        layers["workloads.tracegen_s"] = ledger.total("workloads.tracegen")
        layers["workloads.tracegen_us_per_record"] = ratio(
            1e6 * layers["workloads.tracegen_s"], sum(generated.values())
        )
        layers["sim.build_s"] = ledger.total("sim.build")
        layers["sim.shared_run_s"] = ledger.total("sim.shared_run")
        layers["sim.alone_runs_s"] = ledger.total("sim.alone_runs")
        layers["campaign.store_put_s"] = ledger.total(
            "campaign.store_put"
        ) / len(run_results)
        layers["campaign.blob_bytes"] = statistics.mean(blob_bytes)
        self._run_results = run_results

    def probes(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        from repro.campaign.store import encode_run_result

        alone_runs = sum(
            1
            for doc in self.program_spans()
            for event in doc["traceEvents"]
            if event.get("name") == "alone-run" and event.get("ph") == "X"
        )
        layers["campaign.alone_runs_per_cell"] = alone_runs / self.cells
        layers["campaign.pool_cpu_overhead"] = 1.0
        if self.jobs > 1:
            serial = timed_rounds(
                lambda: self.op(jobs=1), self.check, 0, 1, 1
            )
            layers["campaign.pool_cpu_overhead"] = ratio(
                self.untraced.cpu_p50, serial.cpu_p50
            )
        with ledger.span("probe:encode"):
            with ledger.span("campaign.encode") as span:
                for run_result in self._run_results:
                    encode_run_result(run_result)
        layers["campaign.encode_s"] = span.seconds / len(self._run_results)
        probe_cli(ledger, self.env, layers, samples=3)
        layers.update(probe_micro(ledger, self.seed, self.micro_calls))
        approach, traces = self._first_cell
        layers["traces.rtrc_roundtrip_s"] = probe_rtrc(
            ledger, traces[0], str(self.env.tmp / "probe.rtrc")
        )
        tally = SimTally()
        with ledger.span("probe:profile", approach=approach):
            _shared_run(
                approach, traces, self.horizon, ledger, tally, profile=True
            )
        tally.fill_profile(layers)


def read_store(root: Path):
    """What a store the program wrote holds.

    Returns ``({key: (digest, ws, ms)}, index rows as the program left
    them, index rows after a sync from the blobs)``.
    """
    from repro.campaign import ResultStore
    from repro.campaign.store import decode_run_result, result_digest
    from repro.results import ResultIndex, index_path_for

    store = ResultStore(root, index=False)
    entries = {}
    try:
        for key, path in store.iter_blobs():
            result = decode_run_result(store.load_doc(path)["result"])
            entries[key] = (
                result_digest(result),
                result.metrics.weighted_speedup,
                result.metrics.max_slowdown,
            )
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise CheckFailed(f"unreadable store entry: {error}") from None
    with ResultIndex(index_path_for(root)) as index:
        put_rows = index.count()
        index.sync(store)
        return entries, put_rows, index.count()


class ColdCell(CampaignWorkload):
    name = "cold_cell"
    mixes = ("M4",)
    approaches = ("dbp-tcm",)
    jobs = 1


class CampaignGrid(CampaignWorkload):
    name = "campaign_grid"
    mixes = ("M4", "M7")
    approaches = ("ebp", "dbp-tcm")
    jobs = 2


# ---------------------------------------------------------------------------
class KernelShared(Workload):
    """``System(...).run()`` and nothing else, three cells per round.

    A 4-core policy+TCM cell, a 4-core all-heavy FR-FCFS cell and an
    8-core TCM cell, so one scheduler's quirk cannot dominate the round.
    Traces and alone-run IPCs are built once in set-up.
    """

    name = "kernel_shared"
    CELLS = (("M4", "dbp-tcm"), ("M1", "shared-frfcfs"), ("O1", "tcm"))
    cells = len(CELLS)

    def prepare(self) -> None:
        from repro.sim.runner import Runner
        from repro.workloads import resolve_mix

        runner = Runner(horizon=self.horizon, seed=self.seed)
        self.inputs = []
        for mix_name, approach in self.CELLS:
            apps = resolve_mix(mix_name).apps
            traces = [runner.trace_for(app) for app in apps]
            alone = {t: runner.alone_ipc(app) for t, app in enumerate(apps)}
            self.inputs.append((approach, traces, alone))

    def _round(self, ledger=None, tally=None, profile=False):
        return [
            _shared_run(approach, traces, self.horizon, ledger, tally, profile)
            for approach, traces, _alone in self.inputs
        ]

    def op(self):
        return self._round()

    def traced_op(self):
        self._profiled = SimTally()
        return self._round(tally=self._profiled, profile=True)

    def observe(self, output) -> Dict[str, object]:
        from repro.metrics import summarize

        counts, sim = [], []
        for result, (_approach, _traces, alone) in zip(output, self.inputs):
            shared = {t: result.threads[t].ipc for t in alone}
            if min(shared.values()) <= 0:
                raise CheckFailed("a thread retired nothing")
            counts.append((
                result.engine_events,
                result.total_commands,
                tuple(shared[t] for t in sorted(shared)),
            ))
            summary = summarize(alone, shared)
            sim.append((summary.weighted_speedup, summary.max_slowdown))
        return {"counts": counts, "sim": sim}

    def replay(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        tally = SimTally()
        self._round(ledger, tally)
        tally.fill(layers, ledger.total("sim.shared_run"))
        layers["sim.build_s"] = ledger.total("sim.build")
        layers["sim.shared_run_s"] = ledger.total("sim.shared_run")

    def probes(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        self._profiled.fill_profile(layers)
        layers.update(probe_micro(ledger, self.seed, self.micro_calls))


# ---------------------------------------------------------------------------
class WarmServe(Workload):
    """Five fresh interpreters reading a store seeded in set-up."""

    name = "warm_serve"
    MIXES = ("M4", "M7")
    APPROACHES = ("ebp", "dbp", "tcm", "dbp-tcm", "mcp")
    TUNE_BUDGET = 3
    cells = len(MIXES) * len(APPROACHES)

    @property
    def tune_horizon(self) -> int:
        return self.horizon // 2

    def _commands(self, store: Path, *campaign_extra: object):
        scope = ("--horizon", self.horizon, "--seed", self.seed)
        return [
            (*scope, "campaign", "--mixes", *self.MIXES, "--approaches",
             *self.APPROACHES, "--jobs", 2, "--store", store, "--quiet",
             "--format", "json", *campaign_extra),
            ("results", "index", "--store", store),
            ("results", "query", "--store", store, "--view", "deltas",
             "--pair", "dbp", "ebp", "--run-horizon", self.horizon),
            ("results", "gates", "--store", store,
             "--run-horizon", self.horizon),
            ("--horizon", self.tune_horizon, "--seed", self.seed, "tune",
             "run", "--strategy", "random", "--budget", self.TUNE_BUDGET,
             "--jobs", 2, "--store", store, "--quiet", "--format", "json"),
        ]

    def prepare(self) -> None:
        self.store = self.env.fresh_dir("served-store")
        commands = self._commands(self.store)
        seeded = self.env.repro(*commands[0])
        tuned = self.env.repro(*commands[4])
        for proc in (seeded, tuned):
            if proc.returncode != 0:
                raise CheckFailed(f"seeding failed: {proc.stderr[-300:]}")
        self.seeded_sim = _campaign_sim(json.loads(seeded.stdout))
        self.entries = len(read_store(self.store)[0])

    def op(self, *campaign_extra: object):
        return [
            self.env.repro(*command)
            for command in self._commands(self.store, *campaign_extra)
        ]

    def traced_op(self):
        self._spans_path = self.env.tmp / f"{self.name}.program-spans.json"
        return self.op("--spans", self._spans_path)

    def program_spans(self) -> list:
        from repro.telemetry.spans import load_trace_file

        return [load_trace_file(str(self._spans_path))]

    def observe(self, output) -> Dict[str, object]:
        campaign, index, query, gates, tune = output
        for label, proc in (
            ("campaign", campaign), ("results index", index),
            ("results query", query), ("tune run", tune),
        ):
            if proc.returncode != 0:
                raise CheckFailed(
                    f"{label}: exit code {proc.returncode}: "
                    f"{proc.stderr[-300:]}"
                )
        if gates.returncode not in (0, 1):
            raise CheckFailed(f"results gates: exit code {gates.returncode}")
        campaign_doc = json.loads(campaign.stdout)
        tune_doc = json.loads(tune.stdout)
        for label, rate in (
            ("campaign", campaign_doc["summary"]["cache_hit_rate"]),
            ("tune", tune_doc["cache_hit_rate"]),
        ):
            if rate != 1.0:
                raise CheckFailed(f"{label} re-run was {rate:.0%} cached")
        sim = _campaign_sim(campaign_doc)
        if sim != self.seeded_sim:
            raise CheckFailed("served metrics differ from the seeded ones")
        if f"index rows: {self.entries}" not in index.stdout:
            raise CheckFailed(
                f"index does not hold {self.entries} rows: "
                f"{index.stdout.strip()[-120:]}"
            )
        return {
            "sim": sim,
            "query": query.stdout,
            "gates": (gates.returncode, gates.stdout),
            "frontier": tune_doc["frontier"],
        }

    def replay(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        from repro.campaign import CampaignSpec, ResultStore, run_campaign
        from repro.results import (
            ResultIndex,
            evaluate_gates,
            index_path_for,
            pair_deltas,
        )
        from repro.tuner import run_study

        for _command in self._commands(self.store):
            with ledger.span("cli.import"):
                self.env.python("-c", IMPORT_PROBE)
        store = ResultStore(self.store)
        plan = CampaignSpec(
            mixes=self.MIXES, approaches=self.APPROACHES,
            seeds=(self.seed,), horizons=(self.horizon,),
        ).plan()
        with ledger.span("campaign.cached_plan", specs=len(plan)) as span:
            run_campaign(plan, jobs=2, store=store)
        layers["campaign.cached_plan_s_per_spec"] = span.seconds / len(plan)
        with ResultIndex(index_path_for(self.store)) as index:
            with ledger.span("results.index_resync") as span:
                index.sync(ResultStore(self.store, index=False))
            layers["results.index_resync_s"] = span.seconds
            with ledger.span("results.query") as span:
                index.rows(horizon=self.horizon)
                pair_deltas(index, "dbp", "ebp", horizon=self.horizon)
            layers["results.query_s"] = span.seconds
            with ledger.span("results.gates") as span:
                evaluate_gates(index, horizon=self.horizon)
            layers["results.gates_s"] = span.seconds
            with ledger.span("tuner.warm_study") as span:
                study = run_study(
                    strategy="random", budget=self.TUNE_BUDGET,
                    seed=self.seed, horizon=self.tune_horizon,
                    store=store, index=index, jobs=2,
                )
            layers["tuner.warm_study_s"] = span.seconds
            layers["tuner.cache_hit_rate"] = study.cache_hit_rate

    def probes(self, ledger: Ledger, layers: Dict[str, float]) -> None:
        from repro.campaign import ResultStore
        from repro.results import ResultIndex

        store = ResultStore(self.store, index=False)
        keys = [key for key, _path in store.iter_blobs()]
        with ledger.span("probe:store"):
            with ledger.span("campaign.store_get", entries=len(keys)) as span:
                for key in keys:
                    store.get(key)
            layers["campaign.store_get_s"] = span.seconds / len(keys)
            cold_db = self.env.fresh_dir("cold-index") / "index.sqlite"
            with ResultIndex(cold_db) as index:
                with ledger.span("results.index_sync") as span:
                    index.sync(store)
            layers["results.index_sync_s"] = span.seconds
        probe_cli(ledger, self.env, layers, samples=3)


def _campaign_sim(doc: Dict[str, object]) -> List[Tuple[float, float]]:
    """(ws, ms) per run of a ``campaign --format json`` document."""
    return [
        (run["metrics"]["ws"], run["metrics"]["ms"]) for run in doc["runs"]
    ]


WORKLOADS = {
    cls.name: cls for cls in (ColdCell, CampaignGrid, KernelShared, WarmServe)
}
