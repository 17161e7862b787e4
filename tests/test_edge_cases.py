"""Edge-case tests across components: states that only show up under
unusual parameter combinations or timing patterns."""

import pytest

from repro.config import ControllerConfig, CoreConfig
from repro.cpu.core import Core
from repro.cpu.trace import Trace, TraceRecord
from repro.dram.channel import Channel
from repro.dram.timing import DDR3_1066
from repro.mapping import MemLocation
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import Request
from repro.memctrl.schedulers import make_scheduler
from repro.sim.engine import Engine


class TestWriteDrainHysteresis:
    def _setup(self):
        engine = Engine(500_000)
        channel = Channel(0, 1, 4, DDR3_1066, refresh_enabled=False)
        config = ControllerConfig(
            read_queue_depth=32,
            write_queue_depth=32,
            write_high_watermark=8,
            write_low_watermark=3,
            refresh_enabled=False,
        )
        controller = ChannelController(
            channel, config, make_scheduler("frfcfs", num_threads=1), engine
        )
        return engine, controller

    def _req(self, bank, row, col=0, write=False, arrival=0):
        return Request(
            thread_id=0,
            is_write=write,
            line_addr=col,
            loc=MemLocation(channel=0, rank=0, bank=bank, row=row, col=col),
            arrival=arrival,
        )

    def test_drain_continues_to_low_watermark(self):
        engine, controller = self._setup()
        # Fill above the high watermark, plus a continuous read supply.
        for i in range(9):
            controller.enqueue(self._req(i % 4, 2, col=i, write=True), 0)
        for i in range(4):
            controller.enqueue(self._req(i % 4, 7, col=i), 0)
        engine.run(until=3_000)
        # Drain mode stops at/below the LOW watermark, not the high one.
        assert len(controller.write_queue) <= 3

    def test_single_write_eventually_drains(self):
        engine, controller = self._setup()
        controller.enqueue(self._req(0, 1, write=True), 0)
        engine.run()
        assert controller.stats.writes_served == 1
        assert not controller.write_queue


class TestCoreAheadLimit:
    def test_compute_heavy_core_wakes_itself(self):
        # One enormous gap: the core must cross it through ahead-limit
        # wakeups without any memory completions driving it.
        engine = Engine(50_000)

        class NullPort:
            fill_latency = 0

            def access(self, tid, vline, w, at, cb):
                return at + 1  # everything hits instantly

        trace = Trace("big", [TraceRecord(200_000, 1, False)])
        core = Core(
            core_id=0,
            config=CoreConfig(width=4, rob_size=64, mshrs=4),
            trace=trace,
            port=NullPort(),
            scheduler=engine,
            horizon=50_000,
            ahead_limit=1_000,
        )
        core.start()
        engine.run()
        assert core.ipc() == pytest.approx(4.0, rel=0.01)

    def test_tiny_ahead_limit_still_correct(self):
        engine = Engine(10_000)

        class FixedPort:
            fill_latency = 0

            def access(self, tid, vline, w, at, cb):
                return at + 50

        trace = Trace("t", [TraceRecord(10, 100 + i, False) for i in range(64)])
        results = []
        for ahead in (64, 100_000):
            eng = Engine(10_000)
            core = Core(
                0,
                CoreConfig(width=4, rob_size=64, mshrs=4),
                trace,
                FixedPort(),
                eng,
                horizon=10_000,
                ahead_limit=ahead,
            )
            core.start()
            eng.run()
            results.append(core.ipc())
        # The ahead limit is a compute-scheduling knob, not a model change.
        assert results[0] == pytest.approx(results[1], rel=1e-9)


class TestSchedulerPrefixConsistency:
    """thread_priority fast path must order exactly like key()."""

    @pytest.mark.parametrize("name", ["frfcfs", "atlas", "tcm", "bliss"])
    def test_prefix_matches_key(self, name):
        scheduler = make_scheduler(name, num_threads=4)
        requests = [
            Request(
                thread_id=t,
                is_write=False,
                line_addr=0,
                loc=MemLocation(0, 0, t % 2, 5, 0),
                arrival=10 * t,
            )
            for t in range(4)
        ]
        for row_hit in (False, True):
            for request in requests:
                prefix = scheduler.thread_priority(request.thread_id, 0)
                assert prefix is not None
                composed = prefix + (
                    0 if row_hit else 1,
                    request.arrival,
                    request.req_id,
                )
                assert composed == scheduler.key(request, row_hit, 0)

    @pytest.mark.parametrize("name", ["fcfs", "parbs"])
    def test_per_request_schedulers_opt_out(self, name):
        scheduler = make_scheduler(name, num_threads=4)
        assert scheduler.thread_priority(0, 0) is None


class TestTCMKnobs:
    def test_zero_shuffle_interval_disables_shuffle(self):
        from repro.memctrl.schedulers.base import ProfileSnapshot, ThreadProfile

        scheduler = make_scheduler(
            "tcm", num_threads=2, cluster_fraction=0.0, shuffle_interval=0
        )
        profiles = {
            t: ThreadProfile(t, 20.0, 0.5, 2.0, 0.3, 100) for t in range(2)
        }
        scheduler.on_quantum(ProfileSnapshot(cycle=0, threads=profiles))
        first = scheduler.thread_priority(0, 100)
        later = scheduler.thread_priority(0, 1_000_000)
        assert first == later


class TestRequestFlattening:
    def test_flattened_fields_match_location(self):
        loc = MemLocation(channel=1, rank=1, bank=3, row=77, col=5)
        request = Request(0, False, 123, loc, arrival=9)
        assert (request.rank, request.bank, request.row) == (1, 3, 77)
        assert request.bank_key == (1, 1, 3)
