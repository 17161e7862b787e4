"""Decision-kernel introspection counters over the kernel-golden grid.

The flight-recorder counters (``repro_kernel_*``) describe the controller's
memo machinery, not the simulated machine, so ``kernelgrid.grid_doc``
strips the prefix and the differential document — and therefore the
committed golden fixture — never sees them. This module pins, across the
full 17-spec grid, that the production controller populates them, that
the full-rescan oracle (``tests/reference_kernel.py``) runs none of the
memoized loop yet lands on the same simulation-visible results, plus the
summary math in :mod:`repro.metrics.kernelstats` and exact counts on three
rows (:data:`_PINNED`).
"""

from __future__ import annotations

import pytest

from repro.metrics.kernelstats import (
    kernel_counter_summary,
    render_kernel_summary,
)
from tests import reference_kernel
from tests.kernelgrid import GRID, build_grid_system, grid_doc

#: Counter families every populated run must export.
_KERNEL_METRICS = (
    "repro_kernel_decisions_total",
    "repro_kernel_wake_memo_total",
    "repro_kernel_scans_total",
    "repro_kernel_best_memo_total",
    "repro_kernel_scanned_requests_total",
    "repro_kernel_invalidations_total",
    "repro_kernel_cas_floor_total",
)

#: The families only the memoized decision loop bumps; the invalidation
#: counters fire on the enqueue/issue paths the oracle inherits.
_DECISION_LOOP_METRICS = tuple(
    name
    for name in _KERNEL_METRICS
    if name != "repro_kernel_invalidations_total"
)


def _kernel_samples(snapshot):
    out = {}
    for metric in snapshot["metrics"]:
        if metric["name"].startswith("repro_kernel_"):
            out[metric["name"]] = metric["samples"]
    return out


def _run(spec):
    system = build_grid_system(spec)
    result = system.run()
    return system, result


def _run_oracle(spec):
    with pytest.MonkeyPatch.context() as patch:
        reference_kernel.swap_in(patch)
        system = build_grid_system(spec)
    assert all(
        isinstance(controller, reference_kernel.ReferenceController)
        for controller in system.controllers
    )
    result = system.run()
    return system, result


@pytest.mark.parametrize("spec", GRID, ids=[spec[0] for spec in GRID])
def test_fast_populates_reference_stays_zero_results_identical(spec):
    fast_system, fast_result = _run(spec)
    ref_system, ref_result = _run_oracle(spec)

    fast_counters = _kernel_samples(
        fast_system.metrics_registry().snapshot()
    )
    for name in _KERNEL_METRICS:
        assert name in fast_counters, f"production run exports {name}"
    decisions = sum(
        s["value"] for s in fast_counters["repro_kernel_decisions_total"]
    )
    assert decisions > 0, "the production kernel made decisions"

    # The oracle decides by full rescan: had the swap not taken effect, or
    # had it borrowed the memoized loop, these would count.
    ref_counters = _kernel_samples(ref_system.metrics_registry().snapshot())
    for name in _DECISION_LOOP_METRICS:
        assert all(s["value"] == 0 for s in ref_counters[name]), (
            f"the oracle must not run the memoized loop ({name})"
        )

    assert grid_doc(fast_system, fast_result) == grid_doc(
        ref_system, ref_result
    ), f"{spec[0]}: oracle disagrees on simulation-visible results"


def test_grid_doc_strips_kernel_counters():
    system, result = _run(GRID[0])
    doc = grid_doc(system, result)
    names = {m["name"] for m in doc["metrics"]["metrics"]}
    assert not any(n.startswith("repro_kernel_") for n in names)
    # The live snapshot still carries them — only the differential
    # document is sanitized.
    live = {
        m["name"] for m in system.metrics_registry().snapshot()["metrics"]
    }
    assert any(n.startswith("repro_kernel_") for n in live)


def test_agenda_peak_identical_between_kernels():
    fast_system, _ = _run(GRID[0])
    ref_system, _ = _run_oracle(GRID[0])
    assert fast_system.engine.stat_agenda_peak > 0
    assert (
        fast_system.engine.stat_agenda_peak
        == ref_system.engine.stat_agenda_peak
    )


#: Exact decision-loop work on three grid rows — the machine-independent
#: successor of the old fast/reference wall-clock ratio gate. Columns:
#: decisions, scans, scanned requests, wake-memo hits, wake-memo misses,
#: invalidations (all causes), DRAM commands. A change that moves these on
#: purpose (fewer wakeups per command is the point of ROADMAP item 2)
#: pastes the fresh table from the failure message, so ``git log`` on this
#: dict is the trajectory.
_PINNED = {
    "dbp-tcm/open": (12161, 8102, 34838, 4024, 2198, 9465, 5911),
    "tcm/open": (12954, 8877, 13816, 4046, 2194, 10172, 6691),
    "shared-frfcfs/closed": (15069, 14511, 13722, 0, 0, 11513, 8055),
}


def _decision_counts(spec):
    system, _result = _run(spec)
    snapshot = system.metrics_registry().snapshot()
    summary = kernel_counter_summary(snapshot)
    commands = next(
        metric
        for metric in snapshot["metrics"]
        if metric["name"] == "repro_dram_commands_total"
    )
    return (
        summary["decisions"],
        summary["scans"],
        summary["scanned_requests"],
        summary["wake_memo"]["hits"],
        summary["wake_memo"]["misses"],
        sum(summary["invalidations"].values()),
        sum(sample["value"] for sample in commands["samples"]),
    )


def test_decision_counts_are_pinned():
    specs = {spec[0]: spec for spec in GRID}
    fresh = {name: _decision_counts(specs[name]) for name in _PINNED}
    assert fresh == _PINNED, (
        "decision-loop counts moved; if intended, update _PINNED to:\n"
        + "\n".join(
            f"    {name!r}: {counts!r}," for name, counts in fresh.items()
        )
    )


class TestKernelSummary:
    def test_summary_derives_ratios(self):
        system, result = _run(GRID[10])
        snapshot = system.metrics_registry().snapshot()
        summary = kernel_counter_summary(snapshot)
        assert summary["decisions"] > 0
        wake = summary["wake_memo"]
        assert wake["hits"] + wake["misses"] <= summary["decisions"]
        if wake["hits"]:
            assert 0 < wake["short_circuit_ratio"] <= 1
        best = summary["best_memo"]
        assert best["hits"] + best["misses"] > 0
        assert 0 <= best["hit_rate"] <= 1
        assert summary["scanned_requests"] >= best["misses"]
        causes = summary["invalidations"]
        assert set(causes) >= {
            "enqueue", "activate", "precharge", "cas", "refresh", "token",
        }
        assert causes["enqueue"] > 0
        assert summary["agenda_peak"] > 0
        report = render_kernel_summary(summary)
        assert "wake-memo short-circuits" in report
        assert "invalidations by cause" in report

    def test_summary_of_empty_snapshot(self):
        summary = kernel_counter_summary({"metrics": []})
        assert summary["decisions"] == 0
        assert summary["agenda_peak"] == 0
        assert summary["wake_memo"]["short_circuit_ratio"] is None
        assert summary["best_memo"]["hit_rate"] is None
        assert summary["mean_scan_length"] is None
        assert summary["cas_floor"]["skip_rate"] is None
        # Renders without dividing by zero.
        assert "n/a" in render_kernel_summary(summary)
