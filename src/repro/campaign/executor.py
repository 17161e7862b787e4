"""Supervised parallel campaign execution on supervisor-owned workers.

The executor turns a list of :class:`~repro.campaign.spec.RunSpec` into
:class:`RunOutcome`s under a supervisor that guarantees *no spec is ever
lost silently*: every planned run settles as executed, cached, failed, or
explicitly quarantined — the latter two with a structured
:class:`~repro.campaign.failures.FailureRecord` persisted into the result
store.

Supervision rules (see :mod:`repro.campaign.failures` for the taxonomy):

* runs already in the :class:`~repro.campaign.store.ResultStore` are served
  from disk (``status="cached"``) without touching a worker;
* the rest are handed, one spec at a time, to up to ``jobs`` long-lived
  worker processes the supervisor starts itself (one duplex pipe each).
  A worker runs each hand-off on a Runner built from its spec and lent
  the process's campaign memo — so the cells it serves share traces and
  alone IPCs, keyed by content — and persists its result to the store
  *before* replying, so a campaign killed mid-flight resumes from
  everything that finished. The store is the only cache of runs, and the
  memo ends with the campaign;
* alone-run baselines are shared through the store's alone records: with
  worker processes and a store, the supervisor queues one *baseline task*
  per distinct record its pending specs need and the store lacks, ahead of
  the cells, on the same workers, pipes and deadlines. A cell is
  dispatchable once none of its baselines is queued or in flight. The
  task is a prefetch, not an outcome: however it ends, its dependents are
  released, and a cell that finds no record simulates the baseline itself;
* the supervisor waits on the workers' pipes and process sentinels. A
  worker that overruns the per-run deadline is killed (**timeout**); a
  worker found dead, or one that cannot be started, is an
  **infrastructure** loss. Either way exactly the spec that worker held
  is affected, the worker is replaced, and sibling workers run on
  undisturbed;
* a failed attempt is classified: **transient** errors and **timeouts**
  consume one unit of the spec's bounded retry budget and requeue with
  exponential backoff; **deterministic** errors are retried once to
  confirm and then *quarantine* the spec (a poison spec must not burn the
  campaign's wall-clock); **infrastructure** losses requeue *without*
  being charged, but a spec that loses its worker more than
  ``max_pool_respawns`` times is itself quarantined;
* a retried spec re-runs from scratch on a fresh Runner, so a recovered
  result is bit-identical to an uninterrupted one; a run that cannot
  finish inside ``timeout`` fails however often it is retried;
* when ``jobs=1`` and no timeout is requested there is nothing to kill
  and nothing to overlap, so the same scheduling loop calls the worker
  function inline instead of starting a process — same code path a worker
  process runs, so metrics are bit-identical either way.

:func:`execute` is the one path by which a cell is looked up in, run for
and written to the store: campaigns, tuner trials and the experiment
catalog's grids all come through it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

from ..records import RunResult
from ..telemetry.spans import (
    SpanTracer,
    install_tracer,
    merge_trace_files,
    now_us,
    write_trace_file,
)
from .failures import (
    FailureAttempt,
    FailureClass,
    FailureRecord,
    RunTimeoutError,
    WorkerDiedError,
    classify_failure,
)
from .spec import RunSpec
from .store import ResultStore, StoreStats, scope_of

if TYPE_CHECKING:  # a fully cached plan never loads multiprocessing
    import multiprocessing
    from multiprocessing.connection import Connection

#: Called after every settled run: (outcome, done_count, total_count).
ProgressFn = Callable[["RunOutcome", int, int], None]


@dataclass
class RunOutcome:
    """What happened to one planned run."""

    spec: RunSpec
    status: str  # "ok" | "cached" | "failed" | "quarantined"
    result: Optional[RunResult] = None
    error: str = ""
    wall_clock: float = 0.0
    attempts: int = 0
    #: Structured failure history (also persisted into the store) when the
    #: run failed, was quarantined, or recovered after failed attempts.
    failure: Optional[FailureRecord] = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class CampaignResult:
    """Every outcome of one executed plan, in plan order."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    wall_clock: float = 0.0
    #: Parent-observed seconds spent on attempts that ended in a failure.
    time_lost_to_faults: float = 0.0
    #: Worker processes replaced: killed on a deadline or found dead.
    pool_respawns: int = 0

    def with_status(self, status: str) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def executed(self) -> List[RunOutcome]:
        return self.with_status("ok")

    @property
    def cached(self) -> List[RunOutcome]:
        return self.with_status("cached")

    @property
    def failed(self) -> List[RunOutcome]:
        return self.with_status("failed")

    @property
    def quarantined(self) -> List[RunOutcome]:
        return self.with_status("quarantined")

    @property
    def unresolved(self) -> List[RunOutcome]:
        """Outcomes that neither produced a result nor settled a failure
        record — always empty under the supervisor's no-silent-loss
        guarantee; exposed so chaos tests can assert exactly that."""
        return [
            o
            for o in self.outcomes
            if not o.ok and o.failure is None
        ]

    @property
    def cache_hit_rate(self) -> float:
        return len(self.cached) / len(self.outcomes) if self.outcomes else 0.0


# ---------------------------------------------------------------------------
# Worker side. Everything here must be importable (top-level) and picklable.
# ---------------------------------------------------------------------------
#: The campaign memo: the traces and alone IPCs of every Runner this
#: process builds for a hand-off, keyed by content (see ``Runner.memo``).
#: A worker process's memo ends with the worker, i.e. with its campaign;
#: the supervisor empties its own when a run of the scheduling loop ends.
_MEMO: Dict[object, object] = {}
_WORKER_STORES: Dict[str, ResultStore] = {}


def _store_for(store_root: str) -> ResultStore:
    store = _WORKER_STORES.get(store_root)
    if store is None:
        store = ResultStore(store_root)
        _WORKER_STORES[store_root] = store
    return store


def _span_part_path(span_dir: str, label: str, submission: int) -> str:
    """Unique per-attempt trace-part filename inside ``span_dir``."""
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:8]
    safe = "".join(
        c if c.isalnum() or c in "-_+." else "_" for c in label
    )[:40]
    return os.path.join(
        span_dir, f"{safe}-{digest}-s{submission}-p{os.getpid()}.json"
    )


def _worker(
    spec: RunSpec,
    store_root: Optional[str],
    submission: int = 1,
    fault_plan: Optional[Dict[str, object]] = None,
    span_dir: Optional[str] = None,
    alone: Optional[Tuple[str, str]] = None,
) -> Tuple[object, float]:
    """One hand-off: run the spec on a Runner built from it and lent the
    campaign memo, persist it to the store and return (result, wall-clock
    seconds) — or, given ``alone`` (an alone-record key and its app), a
    baseline task: measure that app alone under the spec's scope, which
    records it.

    The only place a run is simulated for, and written to, the store.
    """
    from ..faults import maybe_fire
    from ..sim.runner import Runner

    label = spec.label
    if alone is not None:
        alone_key, alone_app = alone
        label = f"alone:{alone_app} {alone_key}"
    if fault_plan is not None:
        from ..faults import FaultPlan, install_plan

        install_plan(FaultPlan.from_doc(fault_plan))
    tracer = previous_tracer = None
    if span_dir is not None:
        # Per-attempt tracer: the Runner's span sites pick it up via
        # current_tracer(). The previous tracer is restored in the
        # finally so the inline path hands the supervisor its own
        # tracer back. A worker that dies mid-attempt (SIGKILL fault,
        # deadline kill) never writes its part file; the merge skips the
        # hole and the supervisor's lane still shows the attempt.
        tracer = SpanTracer(f"campaign-worker pid={os.getpid()}")
        previous_tracer = install_tracer(tracer)
    try:
        store = _store_for(store_root) if store_root is not None else None
        runner = Runner(
            config=spec.config,
            store=store,
            telemetry=spec.telemetry,
            memo=_MEMO,
            **scope_of(spec),
        )
        if alone is not None:
            # Chaos harness hook, as for a cell below; its own site, so
            # plans written against ``worker.run`` keep meaning "a cell".
            maybe_fire("worker.alone", key=label, attempt=submission)
            return runner.alone_ipc(alone_app), 0.0  # the reply is unused
        started = time.perf_counter()
        # Chaos harness hook: crash/hang/raise exactly like a faulty run
        # would, inside the timeout scope so injected hangs test the
        # deadline too.
        maybe_fire("worker.run", key=spec.label, attempt=submission)
        result = runner.run_apps(
            list(spec.apps), spec.approach, mix_name=spec.mix_name
        )
        wall = time.perf_counter() - started
        if store is not None:
            key = spec.key()
            store.put(key, result, wall, describe=spec.describe())
            # Chaos harness hook: damage the just-written blob, as a dying
            # disk or torn write would. The store's digest/decode checks
            # must catch it on the next read and quarantine rather than
            # serve garbage.
            maybe_fire(
                "store.put",
                key=spec.label,
                attempt=submission,
                path=store.path_for(key),
            )
    finally:
        if tracer is not None:
            install_tracer(previous_tracer)
            try:
                tracer.write(_span_part_path(span_dir, label, submission))
            except OSError:
                pass  # tracing must never fail the run itself
    return result, wall


class _Failure(NamedTuple):
    """One failed attempt, reduced to what the supervisor records.

    Plain strings plus the class, so a failure crosses the pipe whether or
    not the exception that caused it can be pickled.
    """

    cls: FailureClass
    error_type: str
    message: str
    traceback: str


def _failure_of(error: BaseException) -> _Failure:
    return _Failure(
        classify_failure(error),
        type(error).__name__,
        str(error),
        "".join(
            traceback_module.format_exception(
                type(error), error, error.__traceback__
            )
        ),
    )


def _attempt(args: tuple) -> Union[Tuple[object, float], _Failure]:
    """:func:`_worker` with its exception folded into the return value."""
    try:
        return _worker(*args)
    except Exception as error:
        return _failure_of(error)


def _worker_main(conn: Connection) -> None:
    """Body of a worker process: serve hand-offs until the supervisor goes.

    The campaign memo survives between hand-offs, which is what lets the
    cells one worker serves share traces and alone IPCs. Alone baselines
    are shared wider — across workers and campaigns — through the store's
    alone records.

    Each reply carries the store accounting of its attempt (this process's
    handle counted it), which the supervisor adds to its own handle's.
    """
    while True:
        try:
            args = conn.recv()
        except EOFError:
            return
        reply = _attempt(args)
        store, stats = _WORKER_STORES.get(args[1]), None  # by store root
        if store is not None:
            stats, store.stats = store.stats, StoreStats()
        conn.send((reply, stats))


# ---------------------------------------------------------------------------
# Parent side: the supervisor.
# ---------------------------------------------------------------------------
def _safe_key(spec: RunSpec) -> str:
    """``spec.key()``, resilient to specs whose key cannot be computed.

    An unknown approach makes ``key()`` itself raise (the registry lookup
    fails) — exactly the kind of spec that ends up needing a failure
    record, so the record falls back to hashing the label.
    """
    try:
        return spec.key()
    except Exception:
        digest = hashlib.sha256(spec.label.encode("utf-8")).hexdigest()
        return f"unresolvable-{digest[:32]}"


@dataclass
class _SpecState:
    """The supervisor's bookkeeping for one not-yet-settled spec."""

    spec: RunSpec
    #: Budget-consuming attempts (charged at hand-off, refunded for
    #: infrastructure losses the spec is not responsible for).
    attempts: int = 0
    #: Total hand-offs to a worker, never refunded — this is what fault
    #: injectors key on, so an injected crash with ``times=2`` converges.
    submissions: int = 0
    infra_losses: int = 0
    det_failures: int = 0
    failures: List[FailureAttempt] = field(default_factory=list)
    #: Wall-clock µs of the first hand-off (span tracing only): the
    #: supervisor's "run" span opens here and closes when the spec settles.
    started_us: int = 0


@dataclass(eq=False)
class _Slot:
    """One supervisor-owned worker process and the task it holds, if any."""

    process: multiprocessing.Process
    conn: Connection
    #: The task in flight — a spec index, or a baseline's alone-record
    #: key; None while the worker is idle.
    task: Union[int, str, None] = None
    handed_off: float = 0.0
    deadline: Optional[float] = None

    def stop(self) -> None:
        """Kill the worker. Everything it owes the campaign (store entry,
        span part file) is on disk before it replies, so there is nothing
        to flush and one way to stop — idle, hung or already dead alike."""
        self.process.kill()
        self.process.join()
        self.conn.close()


@dataclass
class _Supervisor:
    """Retry/backoff/quarantine bookkeeping and the one scheduling loop."""

    specs: Sequence[RunSpec]
    outcomes: Dict[int, RunOutcome]
    total: int
    store: Optional[ResultStore]
    retries: int
    timeout: Optional[float]
    progress: Optional[ProgressFn]
    backoff: float
    quarantine_after: int
    max_pool_respawns: int
    fault_plan_doc: Optional[Dict[str, object]]
    tracer: Optional[SpanTracer] = None
    span_dir: Optional[str] = None
    states: Dict[int, _SpecState] = field(default_factory=dict)
    time_lost: float = 0.0
    pool_respawns: int = 0
    #: Tasks runnable now (spec indices; alone-record keys for baseline
    #: tasks) / spec indices requeued for a later monotonic time.
    ready: List[Union[int, str]] = field(default_factory=list)
    delayed: Dict[int, float] = field(default_factory=dict)
    #: Baseline tasks still queued or in flight: alone-record key → (a
    #: spec carrying the scope to measure under, app).
    baselines: Dict[str, Tuple[RunSpec, str]] = field(default_factory=dict)
    #: Spec index → the alone-record keys its run divides by.
    needs: Dict[int, Sequence[str]] = field(default_factory=dict)
    #: Live worker processes, busy and idle.
    slots: List[_Slot] = field(default_factory=list)

    @property
    def store_root(self) -> Optional[str]:
        return str(self.store.root) if self.store is not None else None

    # -- span tracing ----------------------------------------------------
    def _span_attempt(self, st: _SpecState, name: str, wall: float, **args):
        """Record one attempt retrospectively on the spec's virtual lane."""
        if self.tracer is None:
            return
        end = now_us()
        duration = max(int(wall * 1e6), 1)
        self.tracer.complete(
            name,
            end - duration,
            duration,
            lane=self.tracer.lane(st.spec.label),
            **args,
        )

    # -- state -----------------------------------------------------------
    def state(self, index: int) -> _SpecState:
        st = self.states.get(index)
        if st is None:
            st = _SpecState(self.specs[index])
            self.states[index] = st
        return st

    # -- settling --------------------------------------------------------
    def _settle(self, index: int, outcome: RunOutcome) -> None:
        self.outcomes[index] = outcome
        if self.tracer is not None:
            st = self.states.get(index)
            if st is not None and st.started_us:
                self.tracer.complete(
                    "run",
                    st.started_us,
                    now_us() - st.started_us,
                    lane=self.tracer.lane(outcome.spec.label),
                    status=outcome.status,
                    attempts=outcome.attempts,
                )
        if self.progress:
            self.progress(outcome, len(self.outcomes), self.total)

    def settle_ok(self, index: int, result: RunResult, wall: float) -> None:
        st = self.state(index)
        spec = st.spec
        self._span_attempt(
            st, "attempt", wall, submission=st.submissions, outcome="ok"
        )
        record = None
        if st.failures:
            record = self._record(
                st,
                resolution="recovered",
                final_class=st.failures[-1].error_class,
                reason=f"succeeded on attempt {st.attempts}",
            )
            self._persist(record)
        elif self.store is not None:
            self.store.clear_failure(_safe_key(spec))
        self._settle(
            index,
            RunOutcome(
                spec,
                "ok",
                result,
                wall_clock=wall,
                attempts=max(1, st.attempts),
                failure=record,
            ),
        )

    def settle_failure(
        self, index: int, resolution: str, cls: FailureClass, reason: str
    ) -> None:
        st = self.state(index)
        record = self._record(
            st, resolution=resolution, final_class=cls.value, reason=reason
        )
        self._persist(record)
        self._settle(
            index,
            RunOutcome(
                st.spec,
                resolution,
                error=record.last_error or reason,
                attempts=st.attempts,
                failure=record,
            ),
        )

    def _record(
        self, st: _SpecState, resolution: str, final_class: str, reason: str
    ) -> FailureRecord:
        return FailureRecord(
            key=_safe_key(st.spec),
            label=st.spec.label,
            resolution=resolution,
            final_class=final_class,
            reason=reason,
            attempts=list(st.failures),
            time_lost=sum(f.wall_clock for f in st.failures),
        )

    def _persist(self, record: FailureRecord) -> None:
        if self.store is not None:
            self.store.put_failure(record.key, record.to_doc())

    # -- the supervision decision ---------------------------------------
    def handle_failure(
        self, index: int, failure: _Failure, wall: float
    ) -> Optional[float]:
        """Book one failed attempt; returns the requeue delay in seconds,
        or None when the spec settled (failed/quarantined)."""
        st = self.state(index)
        cls = failure.cls
        self.time_lost += wall
        st.failures.append(
            FailureAttempt(
                attempt=st.attempts,
                submission=st.submissions,
                error_class=cls.value,
                error_type=failure.error_type,
                message=failure.message,
                traceback=failure.traceback,
                wall_clock=wall,
                at=time.time(),
            )
        )
        quarantine = None
        if cls is FailureClass.INFRASTRUCTURE:
            # Losing a worker is not evidence against the spec (the OOM
            # killer picks its own victims), so its budget is refunded —
            # but a spec whose worker keeps dying is the likely culprit.
            st.attempts -= 1
            st.infra_losses += 1
            if st.infra_losses <= self.max_pool_respawns:
                return 0.0
            quarantine = (
                f"worker process died {st.infra_losses} times "
                f"while this spec was in flight"
            )
        elif cls is FailureClass.DETERMINISTIC:
            st.det_failures += 1
            if st.det_failures >= self.quarantine_after:
                quarantine = (
                    f"{st.det_failures} deterministic failures; "
                    f"retrying cannot succeed"
                )
        if quarantine is not None:
            self.settle_failure(index, "quarantined", cls, reason=quarantine)
            return None
        if st.attempts >= self.retries + 1:
            self.settle_failure(
                index,
                "failed",
                cls,
                reason=f"retry budget exhausted after {st.attempts} attempts",
            )
            return None
        return self.backoff * (2 ** max(0, st.attempts - 1))

    def _finish(
        self,
        index: Union[int, str],
        reply: Union[Tuple[object, float], _Failure],
        wall: float,
    ) -> None:
        """Settle one attempt, or requeue its spec after a failure."""
        if isinstance(index, str):
            # A baseline task is a prefetch: however it ended, release its
            # dependents. One that finds no record simulates it itself.
            _spec, app = self.baselines.pop(index)
            if self.tracer is not None and isinstance(reply, _Failure):
                self.tracer.instant(
                    "alone-prefetch-lost", app=app, error=reply.error_type
                )
            return
        if not isinstance(reply, _Failure):
            self.settle_ok(index, *reply)
            return
        delay = self.handle_failure(index, reply, wall)
        st = self.state(index)
        self._span_attempt(
            st,
            "fault-retry",
            wall,
            submission=st.submissions,
            error=reply.error_type,
            requeued=delay is not None,
        )
        if delay is None:
            return
        if delay <= 0:
            self.ready.append(index)
        else:
            self.delayed[index] = time.monotonic() + delay

    # -- worker processes ------------------------------------------------
    def _start_worker(self) -> _Slot:
        """Start one worker process (default start method) on its own pipe."""
        import multiprocessing

        ours, theirs = multiprocessing.Pipe()
        # The child holds its own copy of ``theirs``; closing this one is
        # what turns the worker's death into an EOF on ``ours``.
        with theirs:
            process = multiprocessing.Process(
                target=_worker_main, args=(theirs,)
            )
            process.start()
        return _Slot(process, ours)

    def _replace(self, slot: _Slot) -> None:
        """Kill a worker that overran its deadline or died; a successor is
        started by the next hand-off that finds no idle worker."""
        slot.stop()
        self.slots.remove(slot)
        self.pool_respawns += 1

    # -- the scheduling loop ---------------------------------------------
    def run(self, pending: Sequence[int], jobs: int) -> None:
        """Drive every pending spec to a settled outcome.

        A slot is a worker process — except with one job and no deadline,
        where there is nothing to kill and nothing to overlap, so the slot
        is a plain call in this process.
        """
        from ..faults import runtime as faults_runtime

        inline = jobs == 1 and not self.timeout
        if not inline:
            # Workers are forked and inherit what this process has loaded:
            # import the simulator and its policies here, once, or every
            # worker pays for them.
            from ..baselines.base import policy_registry
            from ..sim import runner  # noqa: F401

            policy_registry()
        if inline and self.store is not None:
            # Lend the caller's store handle to the inline worker so its
            # hit/write accounting reflects the runs made on its behalf —
            # for this run only: a handle left behind would be inherited,
            # SQLite connection and all, by a later campaign's forked workers.
            _WORKER_STORES[self.store_root] = self.store
        self.ready = list(pending)
        if not inline and self.store is not None:
            self._queue_baselines(pending)
        try:
            while self.ready or self.delayed or self._busy():
                now = time.monotonic()
                for index, at in sorted(
                    self.delayed.items(), key=lambda kv: kv[1]
                ):
                    if at <= now:
                        self.ready.append(index)
                        del self.delayed[index]
                while len(self._busy()) < jobs:
                    task = self._next_task()
                    if task is None:
                        break
                    self._hand_off(task, inline)
                self._wait()
        finally:
            while self.slots:
                self.slots.pop().stop()
            # The memo ends with the campaign: a later plan reuses these
            # cells only through the store, whatever the job count.
            _MEMO.clear()
            if inline:
                _WORKER_STORES.pop(self.store_root, None)
                if self.fault_plan_doc is not None:
                    # _worker installed the plan into *this* process; drop
                    # it so later campaigns (and the caller) run fault-free.
                    faults_runtime.reset()

    def _busy(self) -> List[_Slot]:
        return [slot for slot in self.slots if slot.task is not None]

    def _queue_baselines(self, pending: Sequence[int]) -> None:
        """Queue, ahead of the cells, one baseline task per distinct alone
        record the pending specs need and the store does not hold."""
        for index in pending:
            spec = self.specs[index]
            keys = spec.alone_keys()
            self.needs[index] = tuple(keys)
            for key, app in keys.items():
                self.baselines.setdefault(key, (spec, app))
        for key in list(self.baselines):
            if self.store.get_alone(key) is not None:
                del self.baselines[key]
        self.ready[:0] = self.baselines

    def _next_task(self) -> Union[int, str, None]:
        """Pop the first queued task that may start now: a baseline task
        always, a cell once none of its baselines is queued or in flight."""
        for position, task in enumerate(self.ready):
            if isinstance(task, str) or not any(
                key in self.baselines for key in self.needs.get(task, ())
            ):
                return self.ready.pop(position)
        return None

    def _hand_off(self, index: Union[int, str], inline: bool) -> None:
        if isinstance(index, str):
            spec, app = self.baselines[index]
            submission, alone = 1, (index, app)
        else:
            spec, alone = self.specs[index], None
            st = self.state(index)
            st.submissions += 1
            st.attempts += 1
            if self.tracer is not None and not st.started_us:
                st.started_us = now_us()
            submission = st.submissions
        args = (
            spec,
            self.store_root,
            submission,
            self.fault_plan_doc,
            self.span_dir,
            alone,
        )
        started = time.monotonic()
        if inline:
            reply = _attempt(args)
            self._finish(index, reply, time.monotonic() - started)
            return
        slot = next((s for s in self.slots if s.task is None), None)
        try:
            if slot is None:
                slot = self._start_worker()
                self.slots.append(slot)
            slot.conn.send(args)
        except OSError as error:
            # No process to be had, or an idle worker died since its last
            # reply. Running the spec unguarded instead would silently drop
            # the deadline, so this is an infrastructure loss like any other.
            if slot is not None:
                self._replace(slot)
            died = WorkerDiedError(f"could not hand off to a worker: {error}")
            self._finish(index, _failure_of(died), 0.0)
            return
        slot.task = index
        slot.handed_off = started
        slot.deadline = started + self.timeout if self.timeout else None

    def _wait(self) -> None:
        """Block until a worker replies, dies or overruns its deadline, or
        a delayed spec comes due; then act on every busy worker's state."""
        busy = self._busy()
        wake = list(self.delayed.values())
        wake += [slot.deadline for slot in busy if slot.deadline is not None]
        timeout = max(0.0, min(wake) - time.monotonic()) if wake else None
        if not busy:
            if timeout:
                time.sleep(timeout)
            return
        from multiprocessing.connection import wait

        signalled = wait(
            [s.conn for s in busy] + [s.process.sentinel for s in busy],
            timeout,
        )
        now = time.monotonic()
        for slot in busy:
            reply = None
            timed_out = False
            if slot.conn in signalled:
                try:
                    reply, stats = slot.conn.recv()
                except (EOFError, OSError):
                    pass  # EOF: the worker died mid-attempt
                else:
                    if stats is not None and self.store is not None:
                        self.store.stats.add(stats)
            elif slot.process.sentinel not in signalled:
                timed_out = slot.deadline is not None and now >= slot.deadline
                if not timed_out:
                    continue  # still running, within its deadline
            index, slot.task = slot.task, None
            if reply is None:
                self._replace(slot)
                pid = slot.process.pid
                reply = _failure_of(
                    RunTimeoutError(
                        f"per-run timeout of {self.timeout}s expired; "
                        f"worker pid {pid} killed"
                    )
                    if timed_out
                    else WorkerDiedError(
                        f"worker pid {pid} died mid-run "
                        f"(exit code {slot.process.exitcode})"
                    )
                )
            self._finish(index, reply, now - slot.handed_off)


def execute(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    backoff: float = 0.25,
    quarantine_after: int = 2,
    max_pool_respawns: int = 3,
    faults: Optional[object] = None,
    spans: Optional[object] = None,
) -> CampaignResult:
    """Execute a plan under supervision; never raises for individual runs.

    ``retries`` bounds *additional* budget-consuming attempts after the
    first, so the default reports a run as failed once it has failed twice
    (infrastructure losses are not charged). ``backoff`` is the base of the
    exponential requeue delay. ``quarantine_after`` deterministic failures
    quarantine a spec; ``max_pool_respawns`` bounds the worker deaths one
    spec is forgiven before it is quarantined. ``timeout`` (seconds) is a
    hard per-attempt deadline, enforced by running the attempt in a worker
    process — even with ``jobs=1`` — and killing the one that overruns.
    A retried attempt re-runs its cell from scratch. ``faults`` injects a
    deterministic :class:`~repro.faults.FaultPlan` into every worker
    (chaos testing).
    ``spans`` names a Chrome-trace JSON file; every worker writes its own
    span part file next to it and the supervisor merges them — with its
    own scheduling spans — into one cross-process timeline at the end.
    """
    started = time.perf_counter()
    started_us = now_us()
    tracer: Optional[SpanTracer] = None
    span_dir: Optional[str] = None
    if spans is not None:
        span_dir = str(spans) + ".parts"
        # Stale parts from an earlier campaign pointed at the same output
        # would pollute the merge.
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        tracer = SpanTracer("campaign-supervisor")
    total = len(specs)
    outcomes: Dict[int, RunOutcome] = {}
    pending: List[int] = []
    for index, spec in enumerate(specs):
        hit = store.get(spec.key()) if store is not None else None
        if hit is not None:
            result, original_wall = hit
            store.clear_failure(spec.key())
            outcomes[index] = RunOutcome(
                spec, "cached", result, wall_clock=original_wall
            )
            if tracer is not None:
                tracer.instant(
                    "run-cached", lane=tracer.lane(spec.label), index=index
                )
            if progress:
                progress(outcomes[index], len(outcomes), total)
        else:
            pending.append(index)

    fault_plan_doc = faults.to_doc() if faults is not None else None

    supervisor = _Supervisor(
        specs,
        outcomes,
        total,
        store,
        retries,
        timeout,
        progress,
        backoff,
        quarantine_after,
        max_pool_respawns,
        fault_plan_doc,
        tracer=tracer,
        span_dir=span_dir,
    )
    if pending:
        supervisor.run(pending, max(1, jobs))

    if tracer is not None and spans is not None:
        tracer.complete(
            "campaign",
            started_us,
            now_us() - started_us,
            runs=total,
            cached=total - len(pending),
            jobs=jobs,
        )
        parts = sorted(
            os.path.join(span_dir, name)
            for name in os.listdir(span_dir)
            if name.endswith(".json")
        )
        # Missing parts are expected: a killed worker never flushes its
        # tracer (at most it leaves a temp file). The supervisor's own spans
        # still record the failed attempt, so the timeline stays complete.
        merged = merge_trace_files(parts, extra=[tracer.to_chrome()])
        write_trace_file(str(spans), merged)
        shutil.rmtree(span_dir, ignore_errors=True)

    ordered = [outcomes[i] for i in sorted(outcomes)]
    return CampaignResult(
        outcomes=ordered,
        wall_clock=time.perf_counter() - started,
        time_lost_to_faults=supervisor.time_lost,
        pool_respawns=supervisor.pool_respawns,
    )
