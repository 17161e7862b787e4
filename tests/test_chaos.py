"""Chaos suite: the campaign layer driven through every injected failure.

The fault harness (:mod:`repro.faults`) is deterministic — whether a rule
fires is a pure function of (seed, site, key, attempt) — so every test
here asserts *exact* convergence: a ``times=1`` fault fires on attempt 1
and provably never again, which lets the supervised executor be held to
"every spec resolved, nothing silently lost" under worker crashes, hangs,
transient and poison exceptions, and corrupted store blobs. One rule
settles every failure: each failed attempt, of whatever kind, costs one
unit of the retry budget.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings

import pytest

from repro.campaign import ResultStore, RunSpec, execute
from repro.campaign.executor import _WORKER_STORES
from repro.campaign.failures import RECORD_VERSION
from repro.errors import SimulationError, TraceError
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    TransientFaultError,
    corrupt_file,
    hang,
    install_plan,
    maybe_fire,
    truncate_file,
)
from repro.faults import reset as faults_reset
from repro.traces.format import load_rtrc, save_rtrc
from repro.traces.source import resolve_trace


@pytest.fixture(autouse=True)
def _clean_process_state():
    """No store handles or fault plans leak across tests."""
    _WORKER_STORES.clear()
    faults_reset()
    yield
    _WORKER_STORES.clear()
    faults_reset()


def _spec(small_config, approach="shared-frfcfs", mix_name="CHAOS"):
    return RunSpec(
        apps=("lbm", "gcc"),
        approach=approach,
        config=small_config,
        horizon=30_000,
        target_insts=200_000,
        mix_name=mix_name,
    )


# ---------------------------------------------------------------------------
# Plan determinism.
# ---------------------------------------------------------------------------
class TestPlan:
    def test_times_bounds_attempts(self):
        plan = FaultPlan(
            faults=(FaultSpec(site="worker.run", kind="transient", times=2),)
        )
        assert plan.match("worker.run", key="x", attempt=1) is not None
        assert plan.match("worker.run", key="x", attempt=2) is not None
        assert plan.match("worker.run", key="x", attempt=3) is None

    def test_site_and_label_matching(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(site="worker.run", kind="crash", match="*ebp*"),
            )
        )
        assert plan.match("worker.run", key="M4/ebp s1 h30000") is not None
        assert plan.match("worker.run", key="M4/dbp s1 h30000") is None
        assert plan.match("store.put", key="M4/ebp s1 h30000") is None

    def test_rate_draw_is_deterministic(self):
        rule = FaultSpec(site="worker.run", kind="transient", rate=0.5)
        a = FaultPlan(seed=11, faults=(rule,))
        b = FaultPlan(seed=11, faults=(rule,))
        keys = [f"run-{i}" for i in range(64)]
        fired_a = [a.match("worker.run", key=k) is not None for k in keys]
        fired_b = [b.match("worker.run", key=k) is not None for k in keys]
        assert fired_a == fired_b
        assert any(fired_a) and not all(fired_a)

    def test_doc_and_file_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec(site="worker.run", kind="hang", seconds=1.5),
                FaultSpec(site="store.put", kind="corrupt_blob", match="*x*"),
            ),
        )
        assert FaultPlan.from_doc(plan.to_doc()) == plan
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="worker.run", kind="meteor-strike")

    def test_unknown_site_rejected(self, tmp_path):
        # A rule naming a site nothing fires at would silently never fire.
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="checkpoint.write", kind="transient")
        doc = {"faults": [{"site": "worker.runn", "kind": "crash"}]}
        with pytest.raises(FaultPlanError):
            FaultPlan.from_doc(doc)
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"site": "", "kind": "hang"}]}')
        with pytest.raises(FaultPlanError):
            FaultPlan.load(path)


# ---------------------------------------------------------------------------
# Injectors.
# ---------------------------------------------------------------------------
class TestInjectors:
    def test_corrupt_file_flips_bytes_keeps_length(self, tmp_path):
        path = tmp_path / "blob"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        corrupt_file(path)
        damaged = path.read_bytes()
        assert len(damaged) == len(original)
        assert damaged != original

    def test_truncate_file_shortens(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 1000)
        truncate_file(path)
        assert path.stat().st_size == 500

    def test_hang_returns_after_deadline(self):
        hang(0.05)  # must simply return

    def test_maybe_fire_raises_by_kind(self):
        install_plan(
            FaultPlan(
                faults=(
                    FaultSpec(site="worker.run", kind="transient"),
                    FaultSpec(site="worker.alone", kind="deterministic"),
                )
            )
        )
        with pytest.raises(TransientFaultError):
            maybe_fire("worker.run", key="k")
        with pytest.raises(SimulationError):
            maybe_fire("worker.alone", key="k")
        assert maybe_fire("store.put", key="k") is None

    def test_truncated_trace_file_fails_deterministically(self, tmp_path):
        trace = resolve_trace("gcc", 1, 50_000)
        path = tmp_path / "gcc.rtrc"
        save_rtrc(trace, str(path))
        truncate_file(path, keep_fraction=0.3)
        # A damaged input fails the same way on every read, so a retry
        # of a run that loads it fails the same way too.
        for _ in range(2):
            with pytest.raises(TraceError):
                load_rtrc(str(path))


# ---------------------------------------------------------------------------
# The one failure rule.
# ---------------------------------------------------------------------------
class TestOneFailureRule:
    @pytest.mark.parametrize(
        "kind, timeout, error_type",
        [
            ("deterministic", None, "SimulationError"),
            ("transient", None, "TransientFaultError"),
            ("hang", 0.5, "RunTimeoutError"),
            ("crash", None, "WorkerDiedError"),
        ],
        ids=["raised", "transient", "timeout", "killed"],
    )
    def test_every_failure_kind_costs_one_retry(
        self, small_config, tmp_path, kind, timeout, error_type
    ):
        """Raised, timed out or worker killed: under ``retries=R`` a cell
        that fails every time settles ``failed`` after exactly R + 1
        hand-offs, with a persisted record of R + 1 attempts."""
        retries = 2
        spec = _spec(small_config)
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.run", kind=kind, times=99, seconds=30.0
                ),
            ),
        )
        result = execute(
            [spec],
            jobs=2,
            store=store,
            retries=retries,
            timeout=timeout,
            faults=plan,
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == retries + 1
        assert outcome.error.startswith(error_type)
        attempts = outcome.failure.attempts
        assert [a.attempt for a in attempts] == [1, 2, 3]
        assert [a.error_type for a in attempts] == [error_type] * 3
        assert outcome.failure.resolution == "failed"
        record = store.get_failure(spec.key())
        assert record["record_version"] == RECORD_VERSION
        assert record["resolution"] == "failed"
        assert len(record["attempts"]) == retries + 1
        assert result.unresolved == []
        # A killed or overrunning worker is replaced on every attempt.
        replaced = retries + 1 if kind in ("hang", "crash") else 0
        assert result.pool_respawns == replaced
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Executor failure paths (serial).
# ---------------------------------------------------------------------------
class TestSerialFaults:
    def test_transient_fault_recovers_with_record(
        self, small_config, tmp_path
    ):
        spec = _spec(small_config)
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan(
            seed=1,
            faults=(
                FaultSpec(site="worker.run", kind="transient", times=1),
            ),
        )
        result = execute([spec], store=store, retries=1, faults=plan)
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.failure is not None
        assert outcome.failure.resolution == "recovered"
        assert result.time_lost_to_faults > 0
        record = store.get_failure(spec.key())
        assert record is not None and record["resolution"] == "recovered"
        assert result.unresolved == []

    def test_poison_spec_fails_after_its_budget_not_retried_forever(
        self, small_config, tmp_path
    ):
        spec = _spec(small_config)
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.run", kind="deterministic", times=99
                ),
            ),
        )
        result = execute([spec], store=store, retries=3, faults=plan)
        outcome = result.outcomes[0]
        # The budget bounds a hopeless spec: four attempts, then failed.
        assert outcome.status == "failed"
        assert outcome.attempts == 4
        assert outcome.failure.resolution == "failed"
        assert [a.error_type for a in outcome.failure.attempts] == [
            "SimulationError"
        ] * 4
        record = store.get_failure(spec.key())
        assert record is not None and record["resolution"] == "failed"
        assert result.unresolved == []

    def test_hang_times_out_then_recovers(self, small_config, tmp_path):
        spec = _spec(small_config)
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.run", kind="hang", times=1, seconds=30.0
                ),
            ),
        )
        result = execute(
            [spec],
            store=store,
            retries=1,
            timeout=0.5,
            faults=plan,
        )
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.failure.attempts[0].error_type == "RunTimeoutError"

        # The retry re-ran from scratch: bit-identical to a clean run.
        clean = execute(
            [spec], store=ResultStore(tmp_path / "clean"), retries=0
        )
        recovered, uninterrupted = outcome.result, clean.outcomes[0].result
        assert (
            recovered.system.engine_events
            == uninterrupted.system.engine_events
        )
        assert recovered.metrics_snapshot == uninterrupted.metrics_snapshot
        assert recovered.shared_ipcs == uninterrupted.shared_ipcs

    def test_failed_spec_heals_on_next_campaign(
        self, small_config, tmp_path
    ):
        spec = _spec(small_config)
        store = ResultStore(tmp_path / "store")
        poison = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.run", kind="deterministic", times=99
                ),
            ),
        )
        first = execute([spec], store=store, faults=poison)
        assert first.outcomes[0].status == "failed"
        assert store.get_failure(spec.key()) is not None
        # Same store, fault fixed (no plan): the spec re-executes and its
        # failure record is cleared — a failure is not a life sentence.
        second = execute([spec], store=store)
        assert second.outcomes[0].status == "ok"
        assert store.get_failure(spec.key()) is None

    def test_corrupt_store_blob_quarantined_and_reexecuted(
        self, small_config, tmp_path
    ):
        spec = _spec(small_config)
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan(
            faults=(FaultSpec(site="store.put", kind="corrupt_blob"),),
        )
        first = execute([spec], store=store, faults=plan)
        assert first.outcomes[0].status == "ok"
        # The blob on disk is damaged; the next campaign must detect it,
        # refuse to serve garbage, and re-run instead of reporting cached.
        second = execute([spec], store=store)
        assert second.outcomes[0].status == "ok"
        assert store.stats.corrupt >= 1

    def test_watchdog_enforces_timeout_off_main_thread(
        self, small_config, tmp_path
    ):
        big = RunSpec(
            apps=("lbm", "gcc"),
            approach="shared-frfcfs",
            config=small_config,
            horizon=400_000,
            target_insts=4_000_000,
        )
        results = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")

            def drive():
                results["campaign"] = execute(
                    [big], jobs=1, retries=0, timeout=0.1
                )

            thread = threading.Thread(target=drive)
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        outcome = results["campaign"].outcomes[0]
        assert outcome.status == "failed"
        assert "timeout" in outcome.error
        assert outcome.failure.attempts[-1].error_type == "RunTimeoutError"
        # One mechanism everywhere: the deadline is a kill of the worker
        # process, so no thread-dependent fallback exists to warn about —
        # and the killed worker must not outlive the campaign.
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert multiprocessing.active_children() == []

    def test_unstartable_worker_is_a_failed_attempt_not_a_bypass(
        self, small_config, monkeypatch
    ):
        def refuse(process):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        result = execute(
            [_spec(small_config)], jobs=1, retries=1, timeout=5.0
        )
        # The deadline could not be enforced, so the spec must not have
        # been run unguarded: each hand-off failed and cost one retry.
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert [a.error_type for a in outcome.failure.attempts] == [
            "WorkerDiedError"
        ] * 2
        assert result.unresolved == []

    def test_single_job_without_timeout_starts_no_process(
        self, small_config, monkeypatch
    ):
        started = []
        original = multiprocessing.Process.start

        def start(process):
            started.append(process)
            return original(process)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        result = execute([_spec(small_config)], jobs=1)
        assert result.outcomes[0].status == "ok"
        assert started == []
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Pooled chaos: real SIGKILL, pool respawn, full mini-campaign.
# ---------------------------------------------------------------------------
class TestPooledChaos:
    def test_worker_kill_replaces_the_worker_and_costs_one_retry(
        self, small_config, tmp_path
    ):
        specs = [
            _spec(small_config, approach="shared-frfcfs"),
            _spec(small_config, approach="ebp"),
        ]
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.run", kind="crash", match="*ebp*", times=1
                ),
            ),
        )
        store = ResultStore(tmp_path / "store")
        result = execute(
            [specs[0], specs[1]],
            jobs=2,
            store=store,
            retries=1,
            faults=plan,
        )
        assert result.pool_respawns == 1
        by_approach = {o.spec.approach: o for o in result.outcomes}
        assert by_approach["shared-frfcfs"].status == "ok"
        assert by_approach["shared-frfcfs"].attempts == 1
        killed = by_approach["ebp"]
        assert killed.status == "ok"
        # The SIGKILL cost the spec one unit of its budget, like any
        # other failed attempt.
        assert killed.attempts == 2
        assert [a.error_type for a in killed.failure.attempts] == [
            "WorkerDiedError"
        ]
        assert result.unresolved == []

    def test_crash_leaves_in_flight_sibling_undisturbed(
        self, small_config, tmp_path
    ):
        specs = [
            _spec(small_config, approach="shared-frfcfs", mix_name="CRASH"),
            # Hangs long enough to be in flight when CRASH's worker dies.
            _spec(small_config, approach="shared-frfcfs", mix_name="SIBLING"),
        ]
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.run", kind="crash", match="CRASH/*", times=1
                ),
                FaultSpec(
                    site="worker.run",
                    kind="hang",
                    match="SIBLING/*",
                    times=1,
                    seconds=1.0,
                ),
            ),
        )
        result = execute(
            specs,
            jobs=2,
            store=ResultStore(tmp_path / "store"),
            retries=1,
            faults=plan,
        )
        by_mix = {o.spec.mix_name: o for o in result.outcomes}
        assert by_mix["CRASH"].status == "ok"
        crashed = by_mix["CRASH"].failure.attempts
        assert [a.error_type for a in crashed] == ["WorkerDiedError"]
        # The sibling's one and only hand-off ran to completion: no
        # failed attempt, so no failure record and no second submission.
        sibling = by_mix["SIBLING"]
        assert sibling.status == "ok"
        assert sibling.attempts == 1
        assert sibling.failure is None
        # Exactly the dead worker was replaced.
        assert result.pool_respawns == 1

    @pytest.mark.parametrize(
        "kind, timeout, replaced",
        [("crash", None, 1), ("hang", 2.0, 1), ("transient", None, 0)],
    )
    def test_lost_baseline_task_only_releases_its_dependents(
        self, small_config, tmp_path, kind, timeout, replaced
    ):
        """A baseline task that fails, or whose worker is SIGKILLed or
        hangs past the deadline: a prefetch was lost, not a run. Both
        cells (they share the lost baseline) settle ok on their first
        attempt with no failure record, and measure the baseline
        themselves."""
        specs = [
            _spec(small_config, approach="shared-frfcfs"),
            _spec(small_config, approach="ebp"),
        ]
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.alone",
                    kind=kind,
                    match="alone:lbm *",
                    times=1,
                    seconds=30.0,
                ),
            ),
        )
        store = ResultStore(tmp_path / "store")
        result = execute(
            specs,
            jobs=2,
            store=store,
            retries=0,
            timeout=timeout,
            faults=plan,
        )
        assert [o.status for o in result.outcomes] == ["ok", "ok"]
        assert [o.attempts for o in result.outcomes] == [1, 1]
        assert [o.failure for o in result.outcomes] == [None, None]
        assert result.unresolved == []
        assert list(store.iter_failures()) == []
        assert result.time_lost_to_faults == 0
        # Exactly the worker holding the baseline was replaced, if any.
        assert result.pool_respawns == replaced
        assert len(store.alone_paths()) == 2  # lbm's came from a cell
        assert multiprocessing.active_children() == []

    def test_mini_campaign_survives_mixed_faults(
        self, small_config, tmp_path
    ):
        """The headline chaos scenario: crash + hang + transient + poison
        in one pooled campaign; every spec must end resolved."""
        specs = [
            _spec(small_config, approach="shared-frfcfs", mix_name="CRASH"),
            _spec(small_config, approach="shared-frfcfs", mix_name="HANG"),
            _spec(small_config, approach="shared-frfcfs", mix_name="FLAKY"),
            _spec(small_config, approach="shared-frfcfs", mix_name="POISON"),
        ]
        plan = FaultPlan(
            seed=5,
            faults=(
                FaultSpec(
                    site="worker.run", kind="crash", match="CRASH/*", times=1
                ),
                FaultSpec(
                    site="worker.run",
                    kind="hang",
                    match="HANG/*",
                    times=1,
                    seconds=30.0,
                ),
                FaultSpec(
                    site="worker.run",
                    kind="transient",
                    match="FLAKY/*",
                    times=1,
                ),
                FaultSpec(
                    site="worker.run",
                    kind="deterministic",
                    match="POISON/*",
                    times=99,
                ),
            ),
        )
        store = ResultStore(tmp_path / "store")
        result = execute(
            specs,
            jobs=2,
            store=store,
            retries=2,
            timeout=2.0,
            faults=plan,
        )
        by_mix = {o.spec.mix_name: o for o in result.outcomes}
        assert by_mix["CRASH"].status == "ok"
        # HANG's first failure may be the timeout OR the pool breakage the
        # CRASH spec caused while HANG was in flight — both must recover.
        assert by_mix["HANG"].status == "ok"
        assert by_mix["FLAKY"].status == "ok"
        assert by_mix["FLAKY"].failure.resolution == "recovered"
        assert by_mix["POISON"].status == "failed"
        assert by_mix["POISON"].attempts == 3
        assert by_mix["POISON"].failure.resolution == "failed"
        # Nothing silently lost: every spec is executed, cached, or
        # failed with a persisted failure record.
        assert result.unresolved == []
        persisted = {key for key, _doc in store.iter_failures()}
        assert specs[3].key() in persisted
        assert result.pool_respawns >= 1
        assert result.time_lost_to_faults > 0
