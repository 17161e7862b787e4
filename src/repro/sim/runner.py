"""Experiment runner: mixes, approaches, alone-run baselines, metrics.

The runner owns the methodology boilerplate every experiment shares:

* traces are generated once per (app, seed) and reused;
* each application's *alone* IPC — the denominator of every speedup — is
  measured on the unpartitioned FR-FCFS system with a single core
  (:meth:`SystemConfig.alone`) once per content key: remembered in memory
  and, with a store attached, as an alone record every later process and
  campaign worker reads instead of simulating;
* a mix run builds a fresh :class:`~repro.sim.system.System` for the chosen
  approach and converts the resulting IPCs into the paper's metrics, and is
  remembered in memory for the life of the Runner.

A Runner never reads or writes run entries: looking a cell up in the
result store, running it and persisting it is
:func:`repro.campaign.executor.execute`'s job, which calls a process-local
Runner per scope to do the simulating.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from ..campaign.store import ResultStore, alone_key, run_key, scope_of
from ..config import SystemConfig
from ..core.integration import Approach, get_approach
from ..cpu.trace import Trace
from ..errors import ExperimentError
from ..metrics import slowdowns, summarize
from ..records import RunResult, SystemResult, WorkloadRunMetrics
from ..telemetry import TelemetryRecorder
from ..telemetry.spans import current_tracer, now_us
from ..traces.source import DefaultTraceSource, TraceSource
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
        trace_source: Optional[TraceSource] = None,
        safepoint_every: Optional[int] = None,
        safepoint_dir: Optional[object] = None,
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
        #: recorder of the most recent *simulated* (non-cached) run is kept
        #: on :attr:`last_telemetry` and its summary travels on the
        #: RunResult. Telemetry never changes simulation results, so store
        #: keys are unaffected.
        self.telemetry = telemetry
        self.last_telemetry: Optional[TelemetryRecorder] = None
        #: When True, mix runs time the event loop per component; the
        #: report of the most recent simulated run lands on
        #: :attr:`last_profile` and on ``RunResult.profile``.
        self.profile = profile
        self.last_profile: Optional[Dict[str, object]] = None
        #: When both are set, every cacheable mix run writes a checkpoint
        #: to ``safepoint_dir/<store_key>.ckpt`` every ``safepoint_every``
        #: cycles and *resumes from* a matching checkpoint left behind by a
        #: killed or timed-out predecessor. The checkpoint is deleted once
        #: the run completes. Resumed runs are bit-identical to
        #: uninterrupted ones (pinned by the kernel-golden checkpoint grid).
        self.safepoint_every = safepoint_every
        self.safepoint_dir = safepoint_dir
        #: Retry attempt this Runner hand-off serves (set by the campaign
        #: executor before each submission). Only consumed by the fault
        #: harness so ``times=N`` checkpoint-write faults stop firing once
        #: the campaign has moved past attempt N.
        self.fault_attempt = 1
        #: Where app names resolve to traces: the default source serves
        #: synthetic profiles and registered library traces alike (see
        #: :mod:`repro.traces.source`).
        self.trace_source: TraceSource = (
            trace_source if trace_source is not None else DefaultTraceSource()
        )
        self._trace_cache: Dict[tuple, Trace] = {}
        self._alone_cache: Dict[str, float] = {}
        self._run_cache: Dict[tuple, RunResult] = {}

    # ------------------------------------------------------------------
    def trace_for(self, app: str) -> Trace:
        """The (cached) trace for one application — synthetic or library.

        Cached under the full generator input (app, seed, target_insts) —
        so mutating the Runner's fields can never serve a stale trace — or,
        for a library trace, under its content digest alone."""
        digest = self.trace_source.digest_for(app)
        key = (app, digest) if digest else (app, self.seed, self.target_insts)
        trace = self._trace_cache.get(key)
        if trace is None:
            trace = self.trace_source.trace_for(
                app, self.seed, self.target_insts
            )
            self._trace_cache[key] = trace
        return trace

    def library_digests(self, apps: Sequence[str]) -> Dict[str, str]:
        """{app: digest} for the library-resolved apps among ``apps``.

        Empty for all-synthetic runs, which keeps their store keys (and
        therefore every previously-persisted result) unchanged.
        """
        digests: Dict[str, str] = {}
        for app in apps:
            digest = self.trace_source.digest_for(app)
            if digest is not None:
                digests[app] = digest
        return digests

    def alone_ipc(self, app: str) -> float:
        """IPC of ``app`` running alone on the full machine.

        Looked up by content key (:func:`repro.campaign.store.alone_key`)
        in memory, then among the store's alone records, and only then
        simulated — and recorded for every later reader.
        """
        key = alone_key(
            self.config,
            app,
            trace_digest=self.trace_source.digest_for(app),
            **scope_of(self),
        )
        ipc = self._alone_cache.get(key)
        if ipc is not None:
            return ipc
        if self.store is not None:
            ipc = self.store.get_alone(key)
        if ipc is None:
            ipc = self._simulate_alone(app)
            if self.store is not None:
                self.store.put_alone(key, ipc, {"app": app, **scope_of(self)})
        self._alone_cache[key] = ipc
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
    def run_cache_key(self, apps: Sequence[str], approach: str) -> tuple:
        """In-memory cache key binding the *resolved* approach.

        Includes the policy and scheduler names and parameters the approach
        label resolves to, so two registrations sharing a label can never
        collide — in this memo or in the persistent store's hash. Library
        traces contribute their content digests, so re-registering a name
        with different records can never serve a stale run either.
        """
        spec = get_approach(approach)
        return (
            tuple(apps),
            approach,
            spec.policy,
            tuple(sorted(spec.policy_params.items())),
            spec.scheduler,
            tuple(sorted(spec.scheduler_params.items())),
            tuple(sorted(self.library_digests(apps).items())),
        )

    def _store_key(self, apps: Sequence[str], approach: str) -> str:
        return run_key(
            self.config,
            apps,
            approach,
            trace_digests=self.library_digests(apps),
            **scope_of(self),
        )

    def run_apps(
        self,
        apps: Sequence[str],
        approach: str,
        mix_name: Optional[str] = None,
    ) -> RunResult:
        """Run a list of applications under a named approach.

        Results are memoized per (apps, resolved approach) for the life of
        the Runner, so callers that read one run twice pay for it once.
        Only the alone baselines touch ``store``; persisting the run itself
        is the campaign executor's job.
        """
        cache_key = self.run_cache_key(apps, approach)
        cached = self._run_cache.get(cache_key)
        if cached is not None:
            return cached
        tracer = current_tracer()
        run_started = now_us() if tracer is not None else 0
        spec = get_approach(approach)
        config = self._configure(spec, len(apps))
        ckpt_path: Optional[Path] = None
        hook: Optional[Callable[[System, int], None]] = None
        every: Optional[int] = None
        store_key: Optional[str] = None
        if self.safepoint_every and self.safepoint_dir is not None:
            store_key = self._store_key(apps, approach)
            ckpt_path = Path(self.safepoint_dir) / f"{store_key}.ckpt"
            every = self.safepoint_every
            label = (
                f"{mix_name or '+'.join(apps)}/{approach} "
                f"s{self.seed} h{self.horizon}"
            )
            hook = self._safepoint_hook(
                ckpt_path, store_key, label, self.fault_attempt
            )
        sim_started = now_us() if tracer is not None else 0
        system = (
            self._restore_safepoint(ckpt_path, store_key)
            if ckpt_path is not None
            else None
        )
        if system is not None:
            result = system.resume(safepoint_every=every, on_safepoint=hook)
        else:
            system = self._build_system(config, apps, spec.make_policy())
            result = system.run(safepoint_every=every, on_safepoint=hook)
        if tracer is not None:
            tracer.complete(
                "measure",
                sim_started,
                now_us() - sim_started,
                mix=mix_name or "+".join(apps),
                approach=approach,
                horizon=self.horizon,
            )
        if ckpt_path is not None:
            try:
                ckpt_path.unlink()
            except OSError:
                pass
        run_result = self._assemble(apps, approach, mix_name, system, result)
        self._run_cache[cache_key] = run_result
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

    # ------------------------------------------------------------------
    # Safepoints (checkpointed mid-run state for fault-tolerant retries).
    # ------------------------------------------------------------------
    def _restore_safepoint(
        self, path: Path, run_key: Optional[str]
    ) -> Optional[System]:
        """A System resumed from ``path``, or None for scratch.

        A checkpoint that is corrupt (torn write, flipped bytes) or stale
        (foreign format version, different run) never aborts the run:
        it is discarded with a warning and the run starts from scratch.
        """
        from ..artefact import Corrupt, Stale
        from .checkpoint import (
            CheckpointError,
            load_checkpoint,
            read_checkpoint_header,
        )

        try:
            blob = path.read_bytes()
        except OSError:  # no safepoint: start from scratch
            return None
        try:
            header = read_checkpoint_header(blob)
            if header.get("meta", {}).get("run_key") != run_key:
                raise CheckpointError("checkpoint belongs to another run")
            system, _header = load_checkpoint(blob)
            if not isinstance(system, System):
                raise CheckpointError("checkpoint does not hold a System")
        except (Stale, Corrupt) as error:
            warnings.warn(
                f"discarding unusable checkpoint {path.name}: {error}; "
                f"restarting from scratch",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return system

    @staticmethod
    def _safepoint_hook(
        path: Path, run_key: str, fault_key: str, fault_attempt: int = 1
    ) -> Callable[[System, int], None]:
        """The per-safepoint callback: checkpoint the system to ``path``.

        A system that cannot be checkpointed (e.g. a lambda on its agenda)
        disables safepoints for the rest of the run with a warning instead
        of failing it.
        """
        from .checkpoint import CheckpointError, write_checkpoint_file

        disabled = [False]

        def hook(system: System, cycle: int) -> None:
            if disabled[0]:
                return
            tracer = current_tracer()
            started = now_us() if tracer is not None else 0
            try:
                blob = system.checkpoint(meta={"run_key": run_key})
            except CheckpointError as error:
                disabled[0] = True
                warnings.warn(
                    f"safepoints disabled for this run: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return
            write_checkpoint_file(
                path, blob,
                fault_key=fault_key,
                fault_attempt=fault_attempt,
            )
            if tracer is not None:
                tracer.complete(
                    "checkpoint-write",
                    started,
                    now_us() - started,
                    cycle=cycle,
                    bytes=len(blob),
                )

        return hook

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
