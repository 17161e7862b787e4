"""Campaign subsystem tests: planner, store, executor, sweep integration."""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    RunSpec,
    execute,
    executor,
    run_key,
    sweep_metrics,
)
from repro.campaign.store import (
    STORE_VERSION,
    alone_key,
    result_digest,
    run_key,
    scope_of,
)
from repro.errors import ExperimentError
from repro.sim.runner import Runner

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def specs(small_config):
    """A tiny two-run plan on the fast test configuration."""
    return [
        RunSpec(
            apps=("lbm", "gcc"),
            approach=approach,
            config=small_config,
            horizon=30_000,
            target_insts=200_000,
            mix_name="TEST",
        )
        for approach in ("shared-frfcfs", "ebp")
    ]


class TestPlanner:
    def test_grid_expansion_order_and_size(self):
        spec = CampaignSpec(
            mixes=("M4", "M7"),
            approaches=("shared-frfcfs", "ebp"),
            seeds=(1, 2),
            horizons=(20_000,),
        )
        plan = spec.plan()
        assert len(plan) == 8
        assert plan[0].mix_name == "M4"
        assert plan[0].approach == "shared-frfcfs"
        assert [s.seed for s in plan[:4]] == [1, 1, 1, 1]

    def test_unknown_mix_rejected_eagerly(self):
        with pytest.raises(Exception):
            CampaignSpec(mixes=("M99",))

    def test_unknown_approach_rejected_eagerly(self):
        with pytest.raises(Exception):
            CampaignSpec(mixes=("M4",), approaches=("warp-drive",))

    def test_plan_sweep_mirrors_runner_scope(self, fast_runner, monkeypatch):
        """The cells a sweep plans carry every scope field of its Runner."""
        import repro.campaign.api as api

        plan = []

        def capture(specs, **_kwargs):
            plan.extend(specs)
            return api.CampaignResult()

        monkeypatch.setattr(api, "execute", capture)
        sweep_metrics(fast_runner, ["M4"], ["ebp"])
        # fast_runner's config has 2 cores; M4 has 4 apps — the campaign
        # worker reconfigures core count per run exactly like run_apps does.
        assert len(plan) == 1
        assert plan[0].key() == run_key(
            fast_runner.config, plan[0].apps, "ebp", **scope_of(fast_runner)
        )
        assert plan[0].horizon == fast_runner.horizon
        assert plan[0].seed == fast_runner.seed
        assert plan[0].target_insts == fast_runner.target_insts
        assert plan[0].config is fast_runner.config


class TestKeys:
    def test_key_deterministic_within_process(self, specs):
        assert specs[0].key() == specs[0].key()
        assert specs[0].key() != specs[1].key()

    def test_key_depends_on_each_scope_field(self, small_config):
        base = RunSpec(
            apps=("lbm", "gcc"), approach="ebp", config=small_config
        )
        variants = [
            RunSpec(apps=("lbm", "mcf"), approach="ebp", config=small_config),
            RunSpec(apps=("lbm", "gcc"), approach="dbp", config=small_config),
            RunSpec(
                apps=("lbm", "gcc"), approach="ebp", config=small_config, seed=2
            ),
            RunSpec(
                apps=("lbm", "gcc"),
                approach="ebp",
                config=small_config,
                horizon=99_999,
            ),
            RunSpec(
                apps=("lbm", "gcc"),
                approach="ebp",
                config=small_config,
                target_insts=123_456,
            ),
        ]
        keys = {spec.key() for spec in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_key_stable_across_processes(self, small_config):
        """The content hash must not depend on process state (hash seed)."""
        spec = RunSpec(apps=("lbm", "gcc"), approach="ebp", config=small_config)
        # Rebuild the same config in the child instead of importing fixtures.
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                (
                    "import sys; sys.path.insert(0, 'src')\n"
                    "from repro.campaign import RunSpec\n"
                    "from repro.config import (SystemConfig, DRAMOrganization,"
                    " CoreConfig, CacheConfig, ControllerConfig, OSConfig)\n"
                    "config = SystemConfig(num_cores=2, clock_ratio=2,"
                    " dram_preset='DDR3-1066',"
                    " organization=DRAMOrganization(channels=1,"
                    " ranks_per_channel=1, banks_per_rank=4, rows_per_bank=256,"
                    " row_size_bytes=8192),"
                    " core=CoreConfig(width=4, rob_size=64, mshrs=8),"
                    " cache=CacheConfig(size_bytes=16*1024, associativity=4),"
                    " controller=ControllerConfig(read_queue_depth=32,"
                    " write_queue_depth=32, write_high_watermark=24,"
                    " write_low_watermark=8),"
                    " osmm=OSConfig(migration_budget_pages=4,"
                    " migration_lines_per_page=2))\n"
                    "print(RunSpec(apps=('lbm', 'gcc'), approach='ebp',"
                    " config=config).key())"
                ),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.strip() == spec.key()

    def test_run_key_binds_resolved_scheduler(
        self, small_config, monkeypatch
    ):
        from repro.core.integration import APPROACHES, Approach

        monkeypatch.setitem(
            APPROACHES, "tmp-x", Approach("tmp-x", "shared", "fcfs")
        )
        key_fcfs = run_key(
            small_config,
            ("lbm", "gcc"),
            "tmp-x",
            seed=1,
            horizon=30_000,
            target_insts=200_000,
        )
        monkeypatch.setitem(
            APPROACHES, "tmp-x", Approach("tmp-x", "shared", "frfcfs")
        )
        key_frfcfs = run_key(
            small_config,
            ("lbm", "gcc"),
            "tmp-x",
            seed=1,
            horizon=30_000,
            target_insts=200_000,
        )
        assert key_fcfs != key_frfcfs

    def test_run_key_binds_scheduler_params(self, specs, monkeypatch):
        from repro.core.integration import APPROACHES, Approach

        spec = replace(specs[0], approach="tmp-x")
        keys = set()
        for fraction in (0.2, 0.4):
            monkeypatch.setitem(
                APPROACHES,
                "tmp-x",
                Approach(
                    "tmp-x",
                    "shared",
                    "tcm",
                    scheduler_params={"cluster_fraction": fraction},
                ),
            )
            keys.add(spec.key())
        assert len(keys) == 2


class TestStore:
    def test_hit_miss_accounting_and_round_trip(self, tmp_path, fast_runner):
        store = ResultStore(tmp_path / "store")
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        key = "ab" + "0" * 62
        assert store.get(key) is None
        assert store.stats.misses == 1
        store.put(key, result, wall_clock=2.5)
        assert store.stats.writes == 1
        got = store.get(key)
        assert got is not None
        restored, wall = got
        assert wall == 2.5
        assert store.stats.hits == 1
        assert store.stats.wall_saved == 2.5
        assert restored.metrics.summary == result.metrics.summary
        assert restored.metrics.slowdowns == result.metrics.slowdowns
        assert restored.alone_ipcs == result.alone_ipcs
        assert restored.shared_ipcs == result.shared_ipcs
        assert restored.system.threads[0].ipc == result.system.threads[0].ipc

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "cd" + "1" * 62
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_stale_version_entry_skipped_not_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ef" + "2" * 62
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"version": 999, "key": key}))
        assert store.get(key) is None
        assert store.stats.stale == 1
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0
        # Stale entries stay on disk: a recompute overwrites the same path.
        assert path.exists()

    def test_wrong_key_entry_quarantined(self, tmp_path):
        from repro.campaign.store import STORE_VERSION

        store = ResultStore(tmp_path / "store")
        key = "ef" + "3" * 62
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"version": STORE_VERSION, "key": "not-the-key"})
        )
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.stale == 0
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()


class TestExecutor:
    def test_pooled_matches_serial_bit_for_bit(self, specs):
        serial = execute(specs, jobs=1)
        pooled = execute(specs, jobs=2)
        assert [o.status for o in pooled.outcomes] == ["ok", "ok"]
        assert [o.status for o in serial.outcomes] == ["ok", "ok"]
        for a, b in zip(pooled.outcomes, serial.outcomes):
            assert a.result.metrics.summary == b.result.metrics.summary
            assert a.result.metrics.slowdowns == b.result.metrics.slowdowns
            assert a.result.shared_ipcs == b.result.shared_ipcs
            assert a.result.alone_ipcs == b.result.alone_ipcs

    def test_store_resume_serves_second_pass_from_disk(self, tmp_path, specs):
        store = ResultStore(tmp_path / "store")
        first = execute(specs, jobs=1, store=store)
        assert [o.status for o in first.outcomes] == ["ok", "ok"]
        second = execute(specs, jobs=1, store=store)
        assert [o.status for o in second.outcomes] == ["cached", "cached"]
        assert second.cache_hit_rate == 1.0
        assert store.stats.hits == 2
        # Metrics survive the JSON round trip exactly (floats untouched).
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.result.metrics.summary == b.result.metrics.summary

    def test_partial_store_resumes_only_missing_runs(self, tmp_path, specs):
        store = ResultStore(tmp_path / "store")
        execute(specs[:1], jobs=1, store=store)
        result = execute(specs, jobs=1, store=store)
        assert [o.status for o in result.outcomes] == ["cached", "ok"]

    def test_failed_run_does_not_abort_grid(self, specs):
        bad = RunSpec(
            apps=("lbm", "gcc"),
            approach="warp-drive",  # unknown: the worker raises ConfigError
            config=specs[0].config,
            horizon=30_000,
            target_insts=200_000,
        )
        result = execute([bad] + specs, jobs=1)
        # The ConfigError costs the spec its budget (one retry by
        # default), then it fails with a structured failure record.
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert "warp-drive" in outcome.error
        assert outcome.failure is not None
        assert outcome.failure.resolution == "failed"
        assert outcome.failure.attempts[-1].error_type == "ConfigError"
        assert "ConfigError" in outcome.failure.attempts[-1].traceback
        assert [o.status for o in result.outcomes[1:]] == ["ok", "ok"]
        assert result.unresolved == []

    def test_campaign_memo_ends_with_the_campaign(self, specs, alone_runs):
        """An inline execute() empties the campaign memo when it returns,
        also after a cell that failed once it had resolved a trace, so a
        later plan reuses nothing but the store."""
        held = []

        def progress(_outcome, _done, _total):
            held.append(len(executor._MEMO))

        execute(specs, jobs=1, progress=progress)
        assert held[0] > 0 and executor._MEMO == {}
        broken = replace(specs[0], apps=("lbm", "no-such-app"))
        result = execute([broken], jobs=1, progress=progress)
        assert result.outcomes[0].status == "failed"
        assert held[-1] > 0 and executor._MEMO == {}
        execute(specs, jobs=1)
        assert alone_runs == ["lbm", "gcc", "lbm", "gcc"]

    def test_budget_exhaustion_reports_failed(self, specs):
        bad = RunSpec(
            apps=("lbm", "gcc"),
            approach="warp-drive",
            config=specs[0].config,
            horizon=30_000,
            target_insts=200_000,
        )
        result = execute([bad], jobs=1, retries=2)
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3
        assert outcome.failure is not None
        assert len(outcome.failure.attempts) == 3

    def test_timeout_enforced_serial(self, small_config):
        # Far more work than 50ms allows; the deadline must cut it off.
        big = RunSpec(
            apps=("lbm", "gcc"),
            approach="shared-frfcfs",
            config=small_config,
            horizon=400_000,
            target_insts=4_000_000,
        )
        result = execute([big], jobs=1, retries=0, timeout=0.05)
        assert result.outcomes[0].status == "failed"
        assert "timeout" in result.outcomes[0].error

    def test_failed_run_retried_then_reported_pooled(self, specs):
        bad = RunSpec(
            apps=("lbm", "gcc"),
            approach="warp-drive",
            config=specs[0].config,
            horizon=30_000,
            target_insts=200_000,
        )
        result = execute([bad], jobs=2, retries=1)
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2  # failed twice: the budget is spent


def _alone_ipc_in_child(root, config, barrier, replies):
    """Measure lbm alone against the store at ``root``, on the barrier."""
    runner = Runner(
        config, horizon=30_000, target_insts=200_000, store=ResultStore(root)
    )
    barrier.wait(timeout=60)
    replies.put(runner.alone_ipc("lbm"))


class TestAloneRecords:
    """Alone baselines as content-addressed records beside the store."""

    def test_key_binds_the_alone_system_and_scope(self, small_config):
        from dataclasses import replace

        scope = dict(seed=1, horizon=30_000, target_insts=200_000)
        base = alone_key(small_config, "lbm", **scope)
        # Core count and scheduler are overridden by the alone system, so
        # every cell of a grid shares one record per app...
        assert base == alone_key(
            replace(small_config, num_cores=4).with_scheduler("tcm"),
            "lbm",
            **scope,
        )
        # ...while everything the alone run depends on forks the key.
        variants = {
            alone_key(small_config, "gcc", **scope),
            alone_key(small_config, "lbm", **{**scope, "seed": 2}),
            alone_key(small_config, "lbm", **{**scope, "horizon": 60_000}),
            alone_key(small_config, "lbm", **{**scope, "target_insts": 9}),
            alone_key(small_config, "lbm", ahead_limit=64, **scope),
            alone_key(small_config, "lbm", validate=True, **scope),
            alone_key(small_config, "lbm", trace_digest="abc", **scope),
            alone_key(replace(small_config, clock_ratio=4), "lbm", **scope),
        }
        assert base not in variants and len(variants) == 8
        assert base != run_key(small_config, ["lbm"], "shared-frfcfs", **scope)

    def test_digests_identical_across_jobs_and_sidecar_states(
        self, tmp_path, specs, alone_runs
    ):
        """jobs=1/jobs=2, alone records absent/present: same bits."""
        cold_alone = tmp_path / "pooled-cold" / "alone"
        digests = {}
        for name, jobs, warm in (
            ("pooled-cold", 2, False),
            ("inline-cold", 1, False),
            ("pooled-warm", 2, True),
            ("inline-warm", 1, True),
        ):
            del alone_runs[:]
            store = ResultStore(tmp_path / name)
            if warm:
                shutil.copytree(cold_alone, store.root / "alone")
            result = execute(specs, jobs=jobs, store=store)
            digests[name] = [result_digest(o.result) for o in result.outcomes]
            assert len(store.alone_paths()) == 2
            assert store.entry_count() == len(specs)
            if jobs == 1:  # inline: the alone runs happen in this process
                assert alone_runs == ([] if warm else ["lbm", "gcc"])
        unstored = execute(specs, jobs=1)
        reference = [result_digest(o.result) for o in unstored.outcomes]
        assert all(seen == reference for seen in digests.values()), digests

    def test_unusable_record_is_a_miss_and_is_replaced(
        self, tmp_path, small_config
    ):
        scope = dict(horizon=30_000, target_insts=200_000)
        expected = Runner(small_config, **scope).alone_ipc("lbm")
        key = alone_key(small_config, "lbm", seed=1, **scope)
        store = ResultStore(tmp_path / "store")
        good = {"version": STORE_VERSION, "key": key, "ipc": expected}
        torn = json.dumps(good)[: len(json.dumps(good)) // 2]
        for raw in (
            torn.encode(),
            b"{ not json",
            b"\xff\xfe\x00garbage",
            b"[1, 2, 3]",
            json.dumps({**good, "version": STORE_VERSION + 1}).encode(),
            json.dumps({**good, "key": "0" * 64}).encode(),
            json.dumps({**good, "ipc": -1.0}).encode(),
            json.dumps({**good, "ipc": "fast"}).encode(),
            json.dumps({"version": STORE_VERSION, "key": key}).encode(),
        ):
            path = store.alone_path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(raw)
            assert store.get_alone(key) is None, raw
            runner = Runner(small_config, store=store, **scope)
            assert runner.alone_ipc("lbm") == expected, raw
            assert store.get_alone(key) == expected, raw

    def test_concurrent_writers_of_one_record_both_succeed(
        self, tmp_path, small_config
    ):
        scope = dict(horizon=30_000, target_insts=200_000)
        expected = Runner(small_config, **scope).alone_ipc("lbm")
        root = tmp_path / "store"
        barrier = multiprocessing.Barrier(2)
        replies = multiprocessing.Queue()
        children = [
            multiprocessing.Process(
                target=_alone_ipc_in_child,
                args=(root, small_config, barrier, replies),
            )
            for _ in range(2)
        ]
        for child in children:
            child.start()
        try:
            seen = [replies.get(timeout=60) for _ in children]
        finally:
            for child in children:
                child.join(timeout=60)
        assert seen == [expected, expected]
        assert [child.exitcode for child in children] == [0, 0]
        store = ResultStore(root)
        key = alone_key(small_config, "lbm", seed=1, **scope)
        assert store.get_alone(key) == expected
        assert store.orphaned_tmp_paths() == []


class TestSweepIntegration:
    def test_sweep_metrics_matches_direct_runs(self, small_config):
        serial = Runner(
            config=small_config, horizon=30_000, target_insts=200_000
        )
        data = sweep_metrics(serial, ["D2"], ["shared-frfcfs", "ebp"])
        direct = Runner(
            config=small_config, horizon=30_000, target_insts=200_000
        )
        from repro.workloads import get_mix

        expected = direct.run_mix(get_mix("D2"), "ebp").metrics
        assert data["ebp"]["ws"] == [expected.weighted_speedup]
        assert data["ebp"]["ms"] == [expected.max_slowdown]
        assert data["ebp"]["hs"] == [expected.harmonic_speedup]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_sweep_failure_raises_experiment_error(
        self, small_config, monkeypatch, jobs
    ):
        from repro.core.integration import APPROACHES, Approach

        # Registered (so planning passes) but the policy name is bogus, so
        # every worker attempt fails and the sweep must surface the error —
        # the same error inline and on worker processes.
        monkeypatch.setitem(
            APPROACHES, "tmp-bad", Approach("tmp-bad", "no-such-policy", "frfcfs")
        )
        runner = Runner(
            config=small_config,
            horizon=30_000,
            target_insts=200_000,
            jobs=jobs,
        )
        with pytest.raises(ExperimentError):
            sweep_metrics(runner, ["D2"], ["tmp-bad"])


class TestRunnerStoreIntegration:
    def test_runner_reads_and_writes_store(self, tmp_path, small_config):
        """A sweep on a store-backed Runner writes every cell, and the same
        sweep on a fresh Runner is all hits."""
        store = ResultStore(tmp_path / "store")
        scope = dict(
            config=small_config,
            horizon=30_000,
            target_insts=200_000,
            store=store,
        )
        grid = (["D2"], ["shared-frfcfs", "ebp"])
        first = sweep_metrics(Runner(**scope), *grid)
        assert (store.stats.writes, store.stats.hits) == (2, 0)
        assert store.entry_count() == 2
        second = sweep_metrics(Runner(**scope), *grid)
        assert (store.stats.writes, store.stats.hits) == (2, 2)
        assert second == first

    def test_runner_store_holds_only_alone_records(
        self, tmp_path, small_config
    ):
        """A Runner reads and writes alone records, never run entries."""
        store = ResultStore(tmp_path / "store")
        runner = Runner(
            config=small_config,
            horizon=30_000,
            target_insts=200_000,
            store=store,
        )
        runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        assert store.entry_count() == 0
        assert (store.stats.hits, store.stats.misses) == (0, 0)
        assert len(store.alone_paths()) == 2


class TestCampaignCLI:
    def test_campaign_cli_runs_and_resumes(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "--horizon",
            "20000",
            "campaign",
            "--mixes",
            "D2",
            "--approaches",
            "shared-frfcfs",
            "--jobs",
            "1",
            "--store",
            str(tmp_path / "store"),
            "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cached" in out
        assert "100% hit rate" in out

    def test_store_line_is_the_same_at_one_and_two_jobs(
        self, tmp_path, capsys
    ):
        """Pool workers write through their own store handles; the summary
        still counts every write they made."""
        from repro.cli import main

        lines = {}
        for jobs in ("2", "1"):
            store = tmp_path / f"store{jobs}"
            argv = [
                "--horizon", "20000", "campaign",
                "--mixes", "M1", "M2", "--approaches", "ebp", "dbp",
                "--jobs", jobs, "--store", str(store), "--quiet",
            ]
            assert main(argv) == 0
            (line,) = [
                text
                for text in capsys.readouterr().out.splitlines()
                if text.startswith("store:")
            ]
            lines[jobs] = line.replace(str(store), "STORE")
        assert lines["2"] == lines["1"]
        assert "4 misses, 4 writes" in lines["1"]

    def test_campaign_cli_json_format(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "--horizon",
                    "20000",
                    "campaign",
                    "--mixes",
                    "D2",
                    "--approaches",
                    "shared-frfcfs",
                    "--no-store",
                    "--quiet",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 1
        assert doc["runs"][0]["status"] == "ok"
        assert doc["runs"][0]["metrics"]["ws"] > 0


class TestAggregateTelemetry:
    def _outcome(self, telemetry):
        from types import SimpleNamespace

        result = (
            None if telemetry == "no-result"
            else SimpleNamespace(telemetry=telemetry)
        )
        return SimpleNamespace(result=result)

    def test_sums_counters_and_maxes_depths(self):
        from repro.campaign import aggregate_telemetry

        merged = aggregate_telemetry(
            [
                self._outcome(
                    {
                        "epochs": 3,
                        "quanta": 3,
                        "repartitions": 2,
                        "max_read_queue_depth": 10,
                    }
                ),
                self._outcome(
                    {
                        "epochs": 5,
                        "quanta": 5,
                        "repartitions": 1,
                        "max_read_queue_depth": 7,
                    }
                ),
                self._outcome(None),  # a run without telemetry
            ]
        )
        assert merged["runs"] == 2
        assert merged["epochs"] == 8
        assert merged["quanta"] == 8
        assert merged["repartitions"] == 3
        assert merged["max_read_queue_depth"] == 10
        # Fields no run reported are dropped, not reported as 0.
        assert "pages_migrated" not in merged

    def test_none_when_no_run_recorded(self):
        from repro.campaign import aggregate_telemetry

        assert aggregate_telemetry([]) is None
        assert aggregate_telemetry([self._outcome(None)]) is None
        assert aggregate_telemetry([self._outcome("no-result")]) is None

    def test_accepts_a_generator(self):
        from repro.campaign import aggregate_telemetry

        outcomes = (self._outcome({"epochs": 2}) for _ in range(3))
        assert aggregate_telemetry(outcomes)["epochs"] == 6

    def test_campaign_report_carries_telemetry_line(self, specs):
        from dataclasses import replace

        from repro.campaign import render_report

        recorded = [replace(spec, telemetry=True) for spec in specs]
        result = execute(recorded, jobs=1)
        assert [o.status for o in result.outcomes] == ["ok", "ok"]
        report = render_report(result)
        assert "telemetry: 2 recorded run(s);" in report
        assert "epochs=" in report
