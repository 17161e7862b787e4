"""Experiment runner: mixes, approaches, alone-run baselines, metrics.

The runner owns the methodology boilerplate every experiment shares:

* traces are resolved once per content key — (app, seed, target_insts),
  or a library trace's digest — and reused by the shared and the alone
  runs; a synthetic trace starts empty and is generated as those runs
  replay it, so only the records some run reads are ever generated or
  held (see :meth:`repro.cpu.trace.Trace.on_demand`);
* each application's *alone* IPC — the denominator of every speedup — is
  measured on the unpartitioned FR-FCFS system with a single core
  (:meth:`SystemConfig.alone`) once per content key
  (:func:`~repro.campaign.store.alone_key`): remembered in memory and,
  with a store attached, as an alone record every later process and
  campaign worker reads instead of simulating;
* a mix run builds a fresh :class:`~repro.sim.system.System` for the chosen
  approach and converts the resulting IPCs into the paper's metrics.

Traces and alone IPCs live in one memo dict, :attr:`Runner.memo`, whose
keys are content keys, so mutating a Runner's scope can never serve a
stale entry. A Runner builds a fresh memo, or uses the one it is handed:
the campaign executor lends every hand-off its process's campaign memo.

A Runner never remembers, reads or writes a run: looking a cell up in the
result store, running it and persisting it is
:func:`repro.campaign.executor.execute`'s job, which builds a Runner from
each cell's spec to do the simulating.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from ..campaign.store import ResultStore, alone_key, scope_of
from ..config import SystemConfig
from ..core.integration import Approach, get_approach
from ..cpu.trace import Trace
from ..errors import ExperimentError
from ..metrics import slowdowns, summarize
from ..records import RunResult, SystemResult, WorkloadRunMetrics
from ..telemetry import TelemetryRecorder
from ..telemetry.spans import current_tracer, now_us
from ..traces.source import library_digest, resolve_trace
from ..workloads import Mix
from .system import System


class Runner:
    """Shared methodology for every experiment."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        horizon: int = 400_000,
        seed: int = 1,
        target_insts: int = 4_000_000,
        validate: bool = False,
        ahead_limit: int = 8192,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        telemetry: bool = False,
        profile: bool = False,
        memo: Optional[Dict[object, object]] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        if horizon <= 0:
            raise ExperimentError("horizon must be positive")
        if jobs < 1:
            raise ExperimentError("jobs must be >= 1")
        self.horizon = horizon
        self.seed = seed
        self.target_insts = target_insts
        self.validate = validate
        self.ahead_limit = ahead_limit
        #: Optional persistent result store (see :mod:`repro.campaign.store`)
        #: whose alone records back :meth:`alone_ipc`; grids run through a
        #: Runner (``sweep_metrics``) also look up and persist their cells
        #: there, through the campaign executor.
        self.store = store
        #: Worker processes campaign-backed sweeps fan out over.
        self.jobs = jobs
        #: When True, every mix run records per-epoch telemetry; the full
        #: recorder of the most recent run is kept on :attr:`last_telemetry`
        #: and its summary travels on the RunResult. Telemetry never changes
        #: simulation results, so store keys are unaffected.
        self.telemetry = telemetry
        self.last_telemetry: Optional[TelemetryRecorder] = None
        #: When True, mix runs time the event loop per component; the
        #: report of the most recent run lands on :attr:`last_profile` and
        #: on ``RunResult.profile``.
        self.profile = profile
        self.last_profile: Optional[Dict[str, object]] = None
        #: Traces by (app, seed, target_insts) or (app, library digest),
        #: alone IPCs by their alone-record key (a string): content keys
        #: all, so one memo can serve Runners of any scope.
        self.memo: Dict[object, object] = memo if memo is not None else {}

    # ------------------------------------------------------------------
    def trace_for(self, app: str) -> Trace:
        """The (memoized) trace for one application — synthetic or library."""
        digest = library_digest(app)
        key = (app, digest) if digest else (app, self.seed, self.target_insts)
        trace = self.memo.get(key)
        if trace is None:
            trace = self.memo[key] = resolve_trace(
                app, self.seed, self.target_insts
            )
        return trace

    def alone_ipc(self, app: str) -> float:
        """IPC of ``app`` running alone on the full machine.

        Looked up by content key (:func:`repro.campaign.store.alone_key`)
        in memory, then among the store's alone records, and only then
        simulated — and recorded for every later reader.
        """
        key = alone_key(
            self.config,
            app,
            trace_digest=library_digest(app),
            **scope_of(self),
        )
        ipc = self.memo.get(key)
        if ipc is not None:
            return ipc
        if self.store is not None:
            ipc = self.store.get_alone(key)
        if ipc is None:
            ipc = self._simulate_alone(app)
            if self.store is not None:
                self.store.put_alone(key, ipc, {"app": app, **scope_of(self)})
        self.memo[key] = ipc
        return ipc

    def _simulate_alone(self, app: str) -> float:
        """One single-core FR-FCFS run of ``app`` (the ``alone-run`` span)."""
        tracer = current_tracer()
        started = now_us() if tracer is not None else 0
        system = System(
            self.config.alone(),
            [self.trace_for(app)],
            horizon=self.horizon,
            validate=self.validate,
            ahead_limit=self.ahead_limit,
        )
        result = system.run()
        if tracer is not None:
            tracer.complete("alone-run", started, now_us() - started, app=app)
        ipc = result.threads[0].ipc
        if ipc <= 0:
            raise ExperimentError(f"alone run of {app!r} retired nothing")
        return ipc

    # ------------------------------------------------------------------
    def run_apps(
        self,
        apps: Sequence[str],
        approach: str,
        mix_name: Optional[str] = None,
    ) -> RunResult:
        """Run a list of applications under a named approach.

        Every call simulates: only the alone baselines touch ``store``, and
        looking a run up or persisting it is the campaign executor's job.
        """
        tracer = current_tracer()
        run_started = now_us() if tracer is not None else 0
        spec = get_approach(approach)
        config = self._configure(spec, len(apps))
        sim_started = now_us() if tracer is not None else 0
        system = self._build_system(config, apps, spec.make_policy())
        result = system.run()
        if tracer is not None:
            tracer.complete(
                "measure",
                sim_started,
                now_us() - sim_started,
                mix=mix_name or "+".join(apps),
                approach=approach,
                horizon=self.horizon,
            )
        run_result = self._assemble(apps, approach, mix_name, system, result)
        if tracer is not None:
            tracer.complete(
                "run",
                run_started,
                now_us() - run_started,
                mix=run_result.metrics.mix,
                approach=approach,
            )
        return run_result

    def _assemble(
        self,
        apps: Sequence[str],
        label: str,
        mix_name: Optional[str],
        system: System,
        result: SystemResult,
    ) -> RunResult:
        """The bookkeeping after any shared run: adopt its telemetry and
        profile, check every thread retired, measure the alone baselines,
        and fold the IPCs into the paper's metrics."""
        recorder = self.last_telemetry = system.telemetry
        self.last_profile = (
            system.profile_report() if self.profile else None
        )
        shared = {t: result.threads[t].ipc for t in range(len(apps))}
        for thread_id, ipc in shared.items():
            if ipc <= 0:
                raise ExperimentError(
                    f"thread {thread_id} ({apps[thread_id]}) retired nothing "
                    f"under {label}"
                )
        tracer = current_tracer()
        alone_started = now_us() if tracer is not None else 0
        alone = {t: self.alone_ipc(app) for t, app in enumerate(apps)}
        if tracer is not None:
            tracer.complete(
                "alone-baselines",
                alone_started,
                now_us() - alone_started,
                apps=list(apps),
            )
        metrics = WorkloadRunMetrics(
            mix=mix_name or "+".join(apps),
            approach=label,
            summary=summarize(alone, shared),
            slowdowns=slowdowns(alone, shared),
            apps=tuple(apps),
        )
        return RunResult(
            metrics=metrics,
            system=result,
            alone_ipcs=alone,
            shared_ipcs=shared,
            telemetry=recorder.summary() if recorder is not None else None,
            metrics_snapshot=system.metrics_registry().snapshot(),
            profile=self.last_profile,
        )

    def run_mix(self, mix: Mix, approach: str) -> RunResult:
        """Run a named mix under a named approach."""
        return self.run_apps(list(mix.apps), approach, mix_name=mix.name)

    def run_custom(
        self,
        apps: Sequence[str],
        policy,
        scheduler: str = "frfcfs",
        label: str = "custom",
        mix_name: Optional[str] = None,
        **scheduler_params: object,
    ) -> RunResult:
        """Run with an explicit policy instance (sweeps and ablations).

        Not cached: policy instances carry their own state and parameters,
        so two calls with the same label are not necessarily the same run.
        """
        config = replace(self.config, num_cores=len(apps))
        config = config.with_scheduler(scheduler, **scheduler_params)
        system = self._build_system(config, apps, policy)
        return self._assemble(apps, label, mix_name, system, system.run())

    # ------------------------------------------------------------------
    def _build_system(
        self, config: SystemConfig, apps: Sequence[str], policy
    ) -> System:
        """A fresh shared-run System under this Runner's scope, with its own
        telemetry recorder when telemetry is enabled."""
        return System(
            config,
            [self.trace_for(app) for app in apps],
            horizon=self.horizon,
            policy=policy,
            validate=self.validate,
            ahead_limit=self.ahead_limit,
            telemetry=TelemetryRecorder() if self.telemetry else None,
            profile=self.profile,
        )

    # ------------------------------------------------------------------
    def _configure(self, spec: Approach, num_cores: int) -> SystemConfig:
        config = replace(self.config, num_cores=num_cores)
        return config.with_scheduler(spec.scheduler, **spec.scheduler_params)
