"""Core model tests against analytic expectations."""

import pytest

from repro.config import CoreConfig
from repro.cpu.core import Core
from repro.cpu.trace import Trace, TraceRecord
from repro.sim.engine import Engine


class RecordingPort:
    """Memory port with a fixed latency; records every access."""

    fill_latency = 0

    def __init__(self, engine, latency=20, synchronous=False):
        self.engine = engine
        self.latency = latency
        self.synchronous = synchronous
        self.accesses = []
        self.outstanding = 0
        self.max_outstanding = 0

    def access(self, thread_id, vline, is_write, at, on_complete):
        self.accesses.append((at, vline, is_write))
        if is_write:
            return None
        if self.synchronous:
            return at + self.latency
        self.outstanding += 1
        self.max_outstanding = max(self.max_outstanding, self.outstanding)

        def deliver(cycle):
            self.outstanding -= 1
            on_complete(cycle)

        self.engine.schedule(at + self.latency, deliver)
        return None


def run_core(trace, horizon=10_000, config=None, latency=20, synchronous=False):
    engine = Engine(horizon)
    port = RecordingPort(engine, latency=latency, synchronous=synchronous)
    core = Core(
        core_id=0,
        config=config or CoreConfig(width=4, rob_size=64, mshrs=8),
        trace=trace,
        port=port,
        scheduler=engine,
        horizon=horizon,
        ahead_limit=2048,
    )
    core.start()
    engine.run()
    return core, port


def uniform_trace(n, gap, is_write=False):
    return Trace(
        "u", [TraceRecord(gap, 100 + i, is_write) for i in range(n)]
    )


class TestComputeBound:
    def test_pure_compute_retires_at_width(self):
        # Huge gaps, tiny fast memory: IPC must approach the width.
        trace = uniform_trace(50, 9999)
        core, _ = run_core(trace, horizon=20_000, synchronous=True, latency=5)
        assert core.ipc() == pytest.approx(4.0, rel=0.02)

    def test_width_scales_compute_rate(self):
        trace = uniform_trace(50, 9999)
        narrow = CoreConfig(width=1, rob_size=64, mshrs=8)
        core, _ = run_core(
            trace, horizon=20_000, config=narrow, synchronous=True, latency=5
        )
        assert core.ipc() == pytest.approx(1.0, rel=0.02)


class TestMemoryBound:
    def test_serial_latency_bound(self):
        # MSHR=1 forces one outstanding read: throughput = 1 per (L+1).
        config = CoreConfig(width=4, rob_size=64, mshrs=1)
        trace = uniform_trace(10_000, 0)
        core, _ = run_core(trace, horizon=8_000, config=config, latency=40)
        requests = core.stats.reads_issued
        assert requests == pytest.approx(8_000 / 41, rel=0.05)

    def test_mlp_scales_with_mshrs(self):
        trace = uniform_trace(10_000, 0)
        results = {}
        for mshrs in (1, 4):
            config = CoreConfig(width=4, rob_size=256, mshrs=mshrs)
            core, _ = run_core(trace, horizon=8_000, config=config, latency=40)
            results[mshrs] = core.retired_insts_processed
        assert results[4] > 3.0 * results[1]

    def test_mshr_cap_respected(self):
        trace = uniform_trace(10_000, 0)
        config = CoreConfig(width=4, rob_size=256, mshrs=3)
        _, port = run_core(trace, horizon=5_000, config=config, latency=60)
        assert port.max_outstanding <= 3

    def test_rob_window_limits_mlp(self):
        # Gaps as large as the ROB: at most one memory record in the window.
        config = CoreConfig(width=4, rob_size=32, mshrs=16)
        trace = uniform_trace(5_000, 32)
        _, port = run_core(trace, horizon=5_000, config=config, latency=100)
        assert port.max_outstanding <= 2


class TestWrites:
    def test_writes_never_block(self):
        # All-write trace with enormous latency still retires at width.
        trace = uniform_trace(5_000, 3, is_write=True)
        core, port = run_core(trace, horizon=4_000, latency=10**6)
        assert core.ipc() == pytest.approx(4.0, rel=0.05)
        assert all(w for (_, _, w) in port.accesses)

    def test_write_counts(self):
        trace = uniform_trace(100, 3, is_write=True)
        core, _ = run_core(trace, horizon=1_000, synchronous=True)
        assert core.stats.writes_issued > 0
        assert core.stats.reads_issued == 0


class TestLooping:
    def test_trace_loops_past_end(self):
        trace = uniform_trace(10, 0)  # tiny trace
        core, port = run_core(trace, horizon=5_000, latency=10)
        assert core.stats.reads_issued > 10
        # Looped addresses repeat.
        vlines = [v for (_, v, _) in port.accesses]
        assert vlines[0] == vlines[10]

    def test_retired_can_exceed_one_loop(self):
        trace = uniform_trace(10, 3)
        core, _ = run_core(trace, horizon=5_000, synchronous=True, latency=5)
        assert core.retired_insts_processed > trace.total_insts


class TestHorizon:
    def test_ipc_uses_horizon_denominator(self):
        trace = uniform_trace(50, 9999)
        core, _ = run_core(trace, horizon=10_000, synchronous=True, latency=5)
        assert core.stats.finished
        assert core.stats.retired_insts <= 4 * 10_000

    def test_no_requests_issued_at_or_past_horizon(self):
        trace = uniform_trace(10_000, 0)
        _, port = run_core(trace, horizon=3_000, latency=10)
        assert all(at < 3_000 for (at, _, _) in port.accesses)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        trace = uniform_trace(2_000, 2)
        a, pa = run_core(trace, horizon=4_000, latency=30)
        b, pb = run_core(trace, horizon=4_000, latency=30)
        assert a.stats.retired_insts == b.stats.retired_insts
        assert pa.accesses == pb.accesses


class TestIssueOrdering:
    def test_issue_times_monotonic(self):
        trace = uniform_trace(1_000, 1)
        _, port = run_core(trace, horizon=3_000, latency=25)
        times = [at for (at, _, _) in port.accesses]
        assert times == sorted(times)

    def test_addresses_follow_program_order(self):
        trace = uniform_trace(500, 1)
        _, port = run_core(trace, horizon=3_000, latency=25)
        vlines = [v for (_, v, _) in port.accesses]
        expected = [100 + i % 500 for i in range(len(vlines))]
        assert vlines == expected


class TestMidRunProbe:
    """Regression: ipc() used to freeze retirement counters when called
    mid-run (an epoch-boundary probe corrupted the rest of the run)."""

    def test_mid_run_ipc_probe_does_not_change_results(self):
        trace = uniform_trace(400, 10)

        def run(probe_cycles):
            engine = Engine(10_000)
            port = RecordingPort(engine, latency=20)
            core = Core(
                core_id=0,
                config=CoreConfig(width=4, rob_size=64, mshrs=8),
                trace=trace,
                port=port,
                scheduler=engine,
                horizon=10_000,
                ahead_limit=2048,
            )
            probes = []
            for cycle in probe_cycles:
                engine.schedule(cycle, lambda c: probes.append(core.ipc()))
            core.start()
            engine.run()
            core.finalize()
            return core, probes

        clean, _ = run([])
        probed, probes = run([1_000, 2_500, 5_000, 7_500])
        assert probed.stats.retired_insts == clean.stats.retired_insts
        assert probed.stats.reads_issued == clean.stats.reads_issued
        assert probed.ipc() == clean.ipc()
        # The probe itself sees monotone non-decreasing progress.
        assert probes == sorted(probes)
        assert probes[-1] > 0.0

    def test_ipc_before_finalize_reflects_progress(self):
        trace = uniform_trace(400, 10)
        engine = Engine(10_000)
        port = RecordingPort(engine, latency=20)
        core = Core(
            core_id=0,
            config=CoreConfig(width=4, rob_size=64, mshrs=8),
            trace=trace,
            port=port,
            scheduler=engine,
            horizon=10_000,
            ahead_limit=2048,
        )
        core.start()
        engine.run(until=2_000)
        mid = core.ipc()
        assert not core.stats.finished  # the probe must not finalize
        engine.run()
        core.finalize()
        assert core.stats.finished
        assert core.ipc() >= mid > 0.0


class TestHorizonEdge:
    """Pin the fencepost at the run bound: an engine event scheduled
    exactly at ``horizon`` does not run, so a read completing exactly at
    the horizon earns no retirement credit, while one cycle earlier
    retires the record's gap instructions (but not the read itself,
    which would retire at completion+1 == horizon)."""

    def _single_read(self, latency, horizon=100):
        trace = Trace("e", [TraceRecord(7, 100, False)])
        core, port = run_core(
            trace, horizon=horizon, latency=latency,
            config=CoreConfig(width=4, rob_size=64, mshrs=8),
        )
        core.finalize()
        return core, port

    def test_read_completing_at_horizon_gets_no_credit(self):
        core, _ = self._single_read(latency=100)
        assert core.stats.retired_insts == 0

    def test_read_completing_just_before_horizon_retires_gap(self):
        core, _ = self._single_read(latency=99)
        # The 7 gap instructions retire by the horizon; the read itself
        # would retire at completion+1 == horizon, which is out of bounds.
        assert core.stats.retired_insts == 7
