"""Telemetry subsystem + regression tests for the accounting/cadence fixes.

Three historical bugs are pinned here, each asserted through the telemetry
layer that would have caught them:

1. migration page-copy traffic used to pollute per-thread ``ThreadResult``
   reads/writes/latency;
2. the scheduler quantum and the policy epoch were collapsed to one
   ``min()`` period, so DBP-TCM repartitioned at TCM's cadence;
3. read latency was measured at CAS issue, understating it by CL + tBURST.
"""

from __future__ import annotations

import pytest

from repro.baselines import SharedPolicy
from repro.errors import ConfigError
from repro.baselines.base import PartitionPolicy
from repro.config import ControllerConfig
from repro.core.dbp import DBPConfig, DynamicBankPartitioning
from repro.dram.channel import Channel
from repro.dram.timing import DDR3_1066
from repro.mapping import MemLocation
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import Request
from repro.memctrl.schedulers import make_scheduler
from repro.osmm import MigrationPlan
from repro.sim.engine import Engine
from repro.sim.runner import Runner
from repro.sim.system import System
from repro.telemetry import TelemetryRecorder, read_epoch_log, write_epoch_log
from repro.telemetry.report import render_decisions, render_timeline
from repro.workloads import AppProfile, generate_trace

HEAVY = AppProfile("heavy", 25.0, 0.7, 4, 0.3, 1)
LIGHT = AppProfile("light", 0.4, 0.6, 2, 0.2, 1)


def traces(seed=1, target_insts=500_000):
    return [
        generate_trace(HEAVY, seed=seed, target_insts=target_insts),
        generate_trace(LIGHT, seed=seed, target_insts=target_insts),
    ]


def dbp_tcm_system(
    small_config,
    horizon,
    epoch_cycles=20_000,
    quantum_cycles=10_000,
    recorder=None,
    seed=1,
):
    config = small_config.with_scheduler("tcm", quantum_cycles=quantum_cycles)
    policy = DynamicBankPartitioning(DBPConfig(epoch_cycles=epoch_cycles))
    return System(
        config,
        traces(seed),
        horizon=horizon,
        policy=policy,
        telemetry=recorder,
    )


# ---------------------------------------------------------------------------
# Fix 2: independent scheduler-quantum / policy-epoch cadences.
# ---------------------------------------------------------------------------
class TestEpochCadence:
    def test_policy_fires_at_its_own_epoch_not_the_quantum(self, small_config):
        # 65k horizon, 10k TCM quantum, 20k DBP epoch: the old min()-shared
        # period made DBP repartition 6 times; it must be exactly 3.
        recorder = TelemetryRecorder()
        system = dbp_tcm_system(small_config, horizon=65_000, recorder=recorder)
        system.run()
        assert system.policy.stat_repartitions == 65_000 // 20_000 == 3
        assert system.scheduler.stat_quanta == 65_000 // 10_000 == 6
        summary = recorder.summary()
        assert summary["policy_epochs"] == 3
        assert summary["quanta"] == 6
        assert summary["repartitions"] == 3
        # Boundaries are the union of both cadences (20k/40k/60k coincide).
        assert summary["epochs"] == 6
        assert [r["cycle"] for r in recorder.records] == [
            10_000, 20_000, 30_000, 40_000, 50_000, 60_000
        ]
        for record in recorder.records:
            assert record["fired_quantum"] == (record["cycle"] % 10_000 == 0)
            assert record["fired_policy"] == (record["cycle"] % 20_000 == 0)
            if record["fired_policy"]:
                assert record["policy"]["allocation"]
                assert record["policy"]["demands"]
            else:
                assert "policy" not in record
            if record["fired_quantum"]:
                assert record["scheduler"]["name"] == "tcm"
                assert "latency_cluster" in record["scheduler"]

    def test_quantum_only_system_has_no_policy_epochs(self, small_config):
        recorder = TelemetryRecorder()
        config = small_config.with_scheduler("tcm", quantum_cycles=10_000)
        system = System(
            config,
            traces(),
            horizon=35_000,
            policy=SharedPolicy(),
            telemetry=recorder,
        )
        system.run()
        summary = recorder.summary()
        assert summary["quanta"] == 3
        assert summary["policy_epochs"] == 0

    def test_staggered_cadences_fire_at_their_own_periods(self, small_config):
        # A 10k quantum and a 25k epoch: neither period divides the other,
        # so the boundaries interleave and meet only at 50k.
        recorder = TelemetryRecorder()
        config = small_config.with_scheduler("tcm", quantum_cycles=10_000)
        system = System(
            config,
            traces(),
            horizon=66_000,
            policy=DynamicBankPartitioning(DBPConfig(epoch_cycles=25_000)),
            telemetry=recorder,
        )
        system.run()
        assert system.scheduler.stat_quanta == 6
        assert system.policy.stat_repartitions == 2
        assert [r["cycle"] for r in recorder.records] == [
            10_000, 20_000, 25_000, 30_000, 40_000, 50_000, 60_000,
        ]
        for record in recorder.records:
            assert record["fired_quantum"] == (record["cycle"] % 10_000 == 0)
            assert record["fired_policy"] == (record["cycle"] % 25_000 == 0)


# ---------------------------------------------------------------------------
# Fix 1: migration traffic must not pollute per-thread accounting.
# ---------------------------------------------------------------------------
class _CopyStorm(PartitionPolicy):
    """Injects pure page-copy traffic every epoch without remapping pages.

    ``moves`` stays empty so no cache lines are invalidated: only the
    ``is_migration`` requests themselves distinguish this run from a
    SharedPolicy run.
    """

    name = "copystorm"
    epoch_cycles = 5_000

    def __init__(self, pairs_per_epoch=24):
        self.pairs_per_epoch = pairs_per_epoch

    def initialize(self, context):
        pass

    def on_epoch(self, snapshot, context):
        amap = context.address_map
        lines = []
        for index in range(self.pairs_per_epoch):
            src = amap.line_in_frame(index, 0)
            dst = amap.line_in_frame(index, 1)
            lines.append((src, dst))
        context.inject_copy_traffic(
            MigrationPlan(thread_id=0, moved_pages=0, copy_lines=lines)
        )


class TestMigrationAccounting:
    def test_migration_cas_excluded_from_thread_counters(self):
        # One demand read plus migration copy traffic for the same thread
        # on an idle controller: only the demand read may reach the
        # per-thread counters, while every burst is charged to the bus.
        engine = Engine(100_000)
        channel = Channel(0, 1, 4, DDR3_1066, clock_ratio=1, refresh_enabled=False)
        config = ControllerConfig(
            read_queue_depth=32,
            write_queue_depth=32,
            write_high_watermark=8,
            write_low_watermark=2,
            refresh_enabled=False,
        )
        scheduler = make_scheduler("frfcfs", num_threads=1)
        controller = ChannelController(channel, config, scheduler, engine)

        def req(row, is_write=False, is_migration=False):
            return Request(
                thread_id=0,
                is_write=is_write,
                line_addr=row,
                loc=MemLocation(channel=0, rank=0, bank=0, row=row, col=0),
                arrival=0,
                is_migration=is_migration,
            )

        controller.enqueue(req(row=1), 0)
        controller.enqueue(req(row=2, is_migration=True), 0)
        controller.enqueue(req(row=3, is_write=True, is_migration=True), 0)
        engine.run()
        stats = controller.stats
        assert stats.migration_reads == 1
        assert stats.migration_writes == 1
        assert stats.reads_served == 1
        assert stats.writes_served == 0
        assert stats.per_thread_reads == {0: 1}
        assert stats.per_thread_writes == {}
        # Latency accumulated for the one demand read only.
        t = DDR3_1066
        assert stats.per_thread_latency_sum[0] == stats.read_latency_sum
        assert stats.read_latency_sum < 2 * (t.tRCD + t.tRC + t.CL + t.tBURST)
        # ... but all three CASes occupied the data bus.
        assert stats.data_bus_busy == 3 * t.tBURST

    def test_copy_storm_never_inflates_thread_counts(self, small_config):
        # Count demand arrivals per thread with an independent listener:
        # served demand can never exceed demand arrivals. The old
        # accounting credited every copy CAS to the migrated thread, so
        # its served counts overshot its arrivals by the copied volume.
        class _DemandArrivals:
            def __init__(self):
                self.reads = {}
                self.writes = {}

            def on_arrival(self, request, now):
                if request.is_migration:
                    return
                counts = self.writes if request.is_write else self.reads
                counts[request.thread_id] = (
                    counts.get(request.thread_id, 0) + 1
                )

            def on_cas(self, request, now, row_hit, data_end=None):
                pass

        system = System(
            small_config,
            traces(target_insts=60_000),
            horizon=120_000,
            policy=_CopyStorm(),
        )
        arrivals = _DemandArrivals()
        for controller in system.controllers:
            controller.add_listener(arrivals)
        result = system.run()
        copied = sum(
            c.stats.migration_reads + c.stats.migration_writes
            for c in system.controllers
        )
        assert copied > 100, "the storm must actually inject copy traffic"
        for thread_id, thread in result.threads.items():
            assert thread.reads <= arrivals.reads.get(thread_id, 0)
            assert thread.writes <= arrivals.writes.get(thread_id, 0)


# ---------------------------------------------------------------------------
# Fix 3: read latency measured at data return, not CAS issue.
# ---------------------------------------------------------------------------
class TestReadLatency:
    def _idle_single_read(self):
        engine = Engine(100_000)
        channel = Channel(0, 1, 4, DDR3_1066, clock_ratio=1, refresh_enabled=False)
        config = ControllerConfig(
            read_queue_depth=32,
            write_queue_depth=32,
            write_high_watermark=8,
            write_low_watermark=2,
            refresh_enabled=False,
        )
        scheduler = make_scheduler("frfcfs", num_threads=1)
        controller = ChannelController(channel, config, scheduler, engine)
        request = Request(
            thread_id=0,
            is_write=False,
            line_addr=0,
            loc=MemLocation(channel=0, rank=0, bank=0, row=3, col=0),
            arrival=0,
        )
        controller.enqueue(request, 0)
        engine.run()
        return controller

    def test_idle_read_latency_includes_cl_and_burst(self):
        controller = self._idle_single_read()
        t = DDR3_1066
        assert controller.stats.reads_served == 1
        # Closed bank: ACT at 1 command-bus slot offsets aside, the analytic
        # latency is tRCD + CL + tBURST; the CL + tBURST floor is what the
        # old CAS-issue measurement violated.
        assert controller.stats.read_latency_sum >= t.CL + t.tBURST
        assert controller.stats.read_latency_sum >= t.tRCD + t.CL + t.tBURST
        assert controller.stats.per_thread_latency_sum[0] == (
            controller.stats.read_latency_sum
        )

    def test_system_mean_read_latency_respects_floor(self, small_config):
        system = System(
            small_config,
            traces(target_insts=60_000),
            horizon=30_000,
            policy=SharedPolicy(),
        )
        result = system.run()
        t = small_config.timings
        for thread in result.threads.values():
            if thread.reads:
                assert thread.mean_read_latency >= t.CL + t.tBURST


# ---------------------------------------------------------------------------
# Telemetry mechanics: zero-cost when off, complete, deterministic.
# ---------------------------------------------------------------------------
class TestRecorder:
    def test_disabled_registers_no_listeners(self, small_config):
        system = dbp_tcm_system(small_config, horizon=30_000)
        assert all(len(c._listeners) == 1 for c in system.controllers)
        assert system.telemetry is None

    def test_enabled_registers_one_probe_per_controller(self, small_config):
        recorder = TelemetryRecorder()
        system = dbp_tcm_system(small_config, horizon=30_000, recorder=recorder)
        assert all(len(c._listeners) == 2 for c in system.controllers)
        assert len(recorder.probes) == len(system.controllers)

    def test_epoch_log_is_deterministic_across_identical_runs(
        self, small_config, tmp_path
    ):
        outputs = []
        for run in range(2):
            recorder = TelemetryRecorder()
            system = dbp_tcm_system(
                small_config, horizon=45_000, recorder=recorder
            )
            system.run()
            path = tmp_path / f"run{run}.json"
            write_epoch_log(path, recorder.records, mix="test", seed=1)
            outputs.append(path.read_bytes())
            # The log reads back as exactly the recorded epochs.
            doc = read_epoch_log(path)
            assert doc["records"] == recorder.records
            assert (doc["mix"], doc["seed"]) == ("test", 1)
        assert outputs[0] == outputs[1]
        assert recorder.records, "a 45k run must record epochs"

    def test_epoch_log_without_records_is_corrupt(self, tmp_path):
        path = tmp_path / "epochs.json"
        write_epoch_log(path, [])
        doc = path.read_text().replace('"records"', '"recs"')
        path.write_text(doc)
        with pytest.raises(ConfigError) as excinfo:
            read_epoch_log(path)
        assert f"corrupt epoch log {path}: no records list" in str(
            excinfo.value
        )

    def test_latency_histogram_counts_all_reads(self, small_config):
        recorder = TelemetryRecorder()
        system = dbp_tcm_system(small_config, horizon=25_000, recorder=recorder)
        result = system.run()
        hist_reads = sum(
            sum(ctrl["latency_hist"])
            for record in recorder.records
            for ctrl in record["controllers"]
        )
        # Epoch records only cover completed epochs; served reads since the
        # last boundary stay in the live probes, so recorded <= total.
        total_reads = sum(t.reads for t in result.threads.values())
        assert 0 < hist_reads <= total_reads

    def test_renderers_produce_tables(self, small_config):
        recorder = TelemetryRecorder()
        system = dbp_tcm_system(small_config, horizon=45_000, recorder=recorder)
        system.run()
        timeline = render_timeline(recorder.records)
        assert "cycle" in timeline and "repart" in timeline
        assert str(20_000) in timeline
        decisions = render_decisions(recorder.records)
        assert "dbp" in decisions
        assert "->" in decisions


# ---------------------------------------------------------------------------
# Runner / store integration.
# ---------------------------------------------------------------------------
class TestRunnerIntegration:
    def test_runner_attaches_summary_and_recorder(self, small_config):
        runner = Runner(
            config=small_config,
            horizon=30_000,
            target_insts=200_000,
            telemetry=True,
        )
        result = runner.run_apps(["lbm", "gcc"], "dbp-tcm")
        assert result.telemetry is not None
        assert result.telemetry["epochs"] > 0
        assert runner.last_telemetry is not None
        assert runner.last_telemetry.summary() == result.telemetry

    def test_runner_without_telemetry_records_nothing(self, fast_runner):
        result = fast_runner.run_apps(["lbm", "gcc"], "ebp")
        assert result.telemetry is None
        assert fast_runner.last_telemetry is None

    def test_summary_round_trips_through_store(self, small_config, tmp_path):
        from repro.campaign import RunSpec, execute
        from repro.campaign.store import ResultStore

        store = ResultStore(tmp_path / "store")
        spec = RunSpec(
            apps=("lbm", "gcc"),
            approach="dbp",
            config=small_config,
            horizon=30_000,
            target_insts=200_000,
            telemetry=True,
        )
        first = execute([spec], store=store).outcomes[0]
        assert first.status == "ok"
        assert first.result.telemetry is not None
        # A second campaign on the same store is served from disk with the
        # summary intact; the entry holds it once, with the result.
        second = execute([spec], store=store).outcomes[0]
        assert second.status == "cached"
        assert second.result.telemetry == first.result.telemetry
        assert store.stats.hits == 1
        doc = store.load_doc(store.path_for(spec.key()))
        assert doc["result"]["telemetry"] == first.result.telemetry
        assert "telemetry" not in doc["spec"]


# ---------------------------------------------------------------------------
# Scheduler telemetry_state: PAR-BS and ATLAS internals in the record.
# ---------------------------------------------------------------------------
class TestSchedulerTelemetryState:
    def test_parbs_state_surfaces_on_policy_epochs(self, small_config):
        # PAR-BS has no quantum: the policy epoch is the only boundary its
        # batch state can surface on.
        recorder = TelemetryRecorder()
        config = small_config.with_scheduler("parbs")
        system = System(
            config,
            traces(),
            horizon=45_000,
            policy=DynamicBankPartitioning(DBPConfig(epoch_cycles=20_000)),
            telemetry=recorder,
        )
        system.run()
        assert all(r["fired_policy"] for r in recorder.records)
        docs = [r["scheduler"] for r in recorder.records]
        assert docs
        doc = docs[-1]
        assert doc["name"] == "parbs"
        assert doc["batches"] >= 1
        assert doc["marked"] >= 0
        # Rank covers the threads that had queued requests at batch time.
        assert doc["rank"]
        assert set(doc["rank"]) <= {0, 1}

    def test_atlas_state_surfaces_on_quanta(self, small_config):
        recorder = TelemetryRecorder()
        config = small_config.with_scheduler("atlas", quantum_cycles=10_000)
        system = System(
            config,
            traces(),
            horizon=35_000,
            policy=SharedPolicy(),
            telemetry=recorder,
        )
        system.run()
        docs = [
            r["scheduler"] for r in recorder.records if r["fired_quantum"]
        ]
        assert docs
        doc = docs[-1]
        assert doc["name"] == "atlas"
        assert doc["quanta"] == len(docs)
        assert sorted(doc["attained"]) == ["0", "1"]
        assert sorted(doc["rank"]) == [0, 1]

    def test_decisions_table_renders_scheduler_column(self, small_config):
        recorder = TelemetryRecorder()
        system = dbp_tcm_system(small_config, horizon=45_000, recorder=recorder)
        system.run()
        table = render_decisions(recorder.records)
        header = table.splitlines()[0]
        assert "scheduler" in header
        assert "tcm L=[" in table
