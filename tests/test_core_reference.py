"""Cross-validation of the event-driven core against a per-cycle reference.

The production :class:`~repro.cpu.core.Core` is an event-driven interval
model; this file implements the same processor abstraction as a naive
cycle-by-cycle simulator (retire W per cycle, ROB window of R instructions,
M MSHRs, fixed memory latency) and checks that the two agree. The reference
is deliberately simple and slow — its value is that it shares no code or
cleverness with the production model.

Cycle semantics of the reference (matching the interval model's documented
retirement granularity — see :mod:`repro.cpu.core`):
* up to W instructions retire per cycle, in order, all from the *current
  record's* bundle (one record never packs into another record's final
  retire cycle — each bundle costs ceil((gap+1)/W) cycles);
* a read instruction may retire only on a cycle strictly after its data
  returned;
* a record's request issues (at most one per cycle) once the instruction
  window reaches it — retired + R >= its instruction index — and, for
  reads, an MSHR is free; reads complete a fixed L cycles after issue;
* writes never block retirement and never consume MSHRs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CoreConfig
from repro.cpu.core import Core
from repro.cpu.trace import Trace, TraceRecord
from repro.sim.engine import Engine


def reference_retired(trace, width, rob, mshrs, latency, horizon):
    """Instructions retired by `horizon` under the per-cycle reference."""
    records = trace.records
    n = len(records)
    cum = trace.cumulative_insts
    total = trace.total_insts

    def m(virt):
        loops, i = divmod(virt, n)
        return loops * total + cum[i]

    def rec(virt):
        return records[virt % n]

    retired = 0  # instructions fully retired
    retire_idx = 0  # current record being retired
    within = 0  # instructions of current record already retired
    issue_idx = 0
    outstanding = []  # completion times of in-flight reads
    complete = {}  # virt idx -> completion cycle
    for cycle in range(horizon):
        # Issue one request per cycle if the window has reached it.
        outstanding = [c for c in outstanding if c > cycle]
        record = rec(issue_idx)
        window_ok = m(issue_idx) - rob <= retired
        if window_ok:
            if record.is_write:
                issue_idx += 1
            elif len(outstanding) < mshrs:
                complete[issue_idx] = cycle + latency
                outstanding.append(cycle + latency)
                issue_idx += 1
        # Retire up to `width` instructions, all from the current record.
        budget = width
        record = rec(retire_idx)
        if within < record.gap:
            take = min(budget, record.gap - within)
            within += take
            retired += take
            budget -= take
        if budget > 0 and within == record.gap:
            # The record's memory instruction is at the head.
            ready = True
            if not record.is_write:
                done = complete.get(retire_idx)
                ready = done is not None and done < cycle
            if ready:
                retired += 1
                retire_idx += 1
                within = 0
    return retired


def event_model_retired(trace, width, rob, mshrs, latency, horizon):
    engine = Engine(horizon)

    class Port:
        fill_latency = 0

        def access(self, tid, vline, is_write, at, cb):
            if is_write:
                return None
            engine.schedule(at + latency, cb)
            return None

    core = Core(
        0,
        CoreConfig(width=width, rob_size=rob, mshrs=mshrs),
        trace,
        Port(),
        engine,
        horizon=horizon,
        ahead_limit=4096,
    )
    core.start()
    engine.run()
    return core.stats.retired_insts if core.stats.finished else core.retired_insts_processed


def compare(trace, width=4, rob=64, mshrs=4, latency=40, horizon=4_000, tol=0.03):
    ref = reference_retired(trace, width, rob, mshrs, latency, horizon)
    fast = event_model_retired(trace, width, rob, mshrs, latency, horizon)
    assert ref > 0
    # Relative tolerance for issue-timing jitter, with an absolute floor:
    # start-of-trace off-by-ones dominate when only a handful of
    # instructions retire within the horizon.
    assert abs(fast - ref) <= max(tol * ref, 4), (
        f"event model {fast} vs reference {ref}"
    )


class TestAgainstReference:
    def test_pure_memory_serial(self):
        trace = Trace("m", [TraceRecord(0, i, False) for i in range(64)])
        compare(trace, mshrs=1)

    def test_pure_memory_parallel(self):
        trace = Trace("m", [TraceRecord(0, i, False) for i in range(64)])
        compare(trace, mshrs=8)

    def test_compute_heavy(self):
        trace = Trace("c", [TraceRecord(500, i, False) for i in range(16)])
        compare(trace)

    def test_balanced(self):
        trace = Trace("b", [TraceRecord(20, i, False) for i in range(64)])
        compare(trace)

    def test_write_mix(self):
        trace = Trace(
            "w",
            [TraceRecord(5, i, i % 2 == 0) for i in range(64)],
        )
        compare(trace)

    def test_window_limited(self):
        trace = Trace("win", [TraceRecord(60, i, False) for i in range(32)])
        compare(trace, rob=32, mshrs=16)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        gaps=st.lists(st.integers(0, 80), min_size=4, max_size=40),
        writes=st.data(),
        width=st.sampled_from([1, 2, 4]),
        mshrs=st.sampled_from([1, 2, 8]),
        latency=st.sampled_from([10, 40, 120]),
    )
    def test_random_traces_agree(self, gaps, writes, width, mshrs, latency):
        records = [
            TraceRecord(gap, i, writes.draw(st.booleans(), label=f"w{i}"))
            for i, gap in enumerate(gaps)
        ]
        if all(r.is_write for r in records):
            records[0] = TraceRecord(records[0].gap, 0, False)
        trace = Trace("rand", records)
        compare(
            trace,
            width=width,
            rob=64,
            mshrs=mshrs,
            latency=latency,
            horizon=3_000,
            tol=0.05,
        )
