"""Thread profiler tests: MPKI, RBH, BLP integrals, epoch reset."""

import pytest

from repro.core.profiler import ThreadProfiler
from repro.mapping import MemLocation
from repro.memctrl.request import Request


def req(thread=0, bank=0, write=False, migration=False):
    return Request(
        thread_id=thread,
        is_write=write,
        line_addr=0,
        loc=MemLocation(channel=0, rank=0, bank=bank, row=0, col=0),
        arrival=0,
        is_migration=migration,
    )


class Retired:
    """Mutable retirement counter stand-in for the cores."""

    def __init__(self):
        self.values = {0: 0, 1: 0}

    def __call__(self, thread_id):
        return self.values[thread_id]


@pytest.fixture
def setup():
    retired = Retired()
    profiler = ThreadProfiler(
        num_threads=2, burst_cycles=4, retired_insts_of=retired
    )
    return profiler, retired


class TestMPKI:
    def test_requests_over_kiloinsts(self, setup):
        profiler, retired = setup
        for _ in range(20):
            profiler.on_arrival(req(0), 0)
        retired.values[0] = 2000
        snap = profiler.snapshot(1000)
        assert snap.profile(0).mpki == pytest.approx(10.0)

    def test_zero_insts_gives_zero_mpki(self, setup):
        profiler, _ = setup
        profiler.on_arrival(req(0), 0)
        assert profiler.snapshot(100).profile(0).mpki == 0.0

    def test_mpki_is_per_epoch(self, setup):
        profiler, retired = setup
        for _ in range(10):
            profiler.on_arrival(req(0), 0)
        retired.values[0] = 1000
        profiler.snapshot(500)
        # Second epoch: no requests, 1000 more insts.
        retired.values[0] = 2000
        assert profiler.snapshot(1000).profile(0).mpki == 0.0


class TestRBH:
    def test_hit_rate(self, setup):
        profiler, _ = setup
        requests = [req(0) for _ in range(4)]
        for r in requests:
            profiler.on_arrival(r, 0)
        for i, r in enumerate(requests):
            profiler.on_cas(r, 10 + i, row_hit=(i % 2 == 0))
        assert profiler.snapshot(100).profile(0).rbh == pytest.approx(0.5)

    def test_no_served_gives_zero(self, setup):
        profiler, _ = setup
        assert profiler.snapshot(100).profile(0).rbh == 0.0


class TestBLP:
    def test_single_bank_blp_is_one(self, setup):
        profiler, _ = setup
        r = req(0, bank=0)
        profiler.on_arrival(r, 0)
        profiler.on_cas(r, 100, False)
        assert profiler.snapshot(200).profile(0).blp == pytest.approx(1.0)

    def test_two_banks_concurrent_blp_is_two(self, setup):
        profiler, _ = setup
        a, b = req(0, bank=0), req(0, bank=1)
        profiler.on_arrival(a, 0)
        profiler.on_arrival(b, 0)
        profiler.on_cas(a, 100, False)
        profiler.on_cas(b, 100, False)
        assert profiler.snapshot(200).profile(0).blp == pytest.approx(2.0)

    def test_blp_time_weighted(self, setup):
        profiler, _ = setup
        a, b = req(0, bank=0), req(0, bank=1)
        profiler.on_arrival(a, 0)
        profiler.on_arrival(b, 0)
        profiler.on_cas(b, 50, False)  # two banks for 50 cycles
        profiler.on_cas(a, 150, False)  # one bank for 100 cycles
        # Integral = 2*50 + 1*100 = 200 over 150 active cycles.
        assert profiler.snapshot(200).profile(0).blp == pytest.approx(200 / 150)

    def test_multiple_requests_same_bank_count_once(self, setup):
        profiler, _ = setup
        a, b = req(0, bank=0), req(0, bank=0)
        profiler.on_arrival(a, 0)
        profiler.on_arrival(b, 0)
        profiler.on_cas(a, 100, False)
        profiler.on_cas(b, 120, False)
        assert profiler.snapshot(200).profile(0).blp == pytest.approx(1.0)

    def test_threads_independent(self, setup):
        profiler, _ = setup
        a, b = req(0, bank=0), req(1, bank=1)
        profiler.on_arrival(a, 0)
        profiler.on_arrival(b, 0)
        profiler.on_cas(a, 100, False)
        profiler.on_cas(b, 100, False)
        snap = profiler.snapshot(200)
        assert snap.profile(0).blp == pytest.approx(1.0)
        assert snap.profile(1).blp == pytest.approx(1.0)


class TestBandwidth:
    def test_service_fraction(self, setup):
        profiler, _ = setup
        requests = [req(0) for _ in range(5)]
        for r in requests:
            profiler.on_arrival(r, 0)
        for r in requests:
            profiler.on_cas(r, 50, False)
        # 5 requests x 4 burst cycles over a 100-cycle epoch.
        assert profiler.snapshot(100).profile(0).bandwidth == pytest.approx(0.2)


class TestMigrationExclusion:
    def test_migration_traffic_ignored(self, setup):
        profiler, _ = setup
        r = req(0, migration=True)
        profiler.on_arrival(r, 0)
        profiler.on_cas(r, 50, True)
        snap = profiler.snapshot(100)
        assert snap.profile(0).requests == 0
        assert snap.profile(0).bandwidth == 0.0


class TestEpochBoundary:
    def test_counters_reset(self, setup):
        profiler, retired = setup
        r = req(0)
        profiler.on_arrival(r, 0)
        profiler.on_cas(r, 10, True)
        retired.values[0] = 1000
        profiler.snapshot(100)
        snap = profiler.snapshot(200)
        assert snap.profile(0).requests == 0
        assert snap.profile(0).rbh == 0.0

    def test_outstanding_state_carries_over(self, setup):
        profiler, _ = setup
        r = req(0, bank=0)
        profiler.on_arrival(r, 0)
        profiler.snapshot(100)  # request still outstanding
        profiler.on_cas(r, 150, False)
        # 50 active cycles in the second epoch, one bank.
        assert profiler.snapshot(200).profile(0).blp == pytest.approx(1.0)

    def test_unknown_thread_gets_zero_profile(self, setup):
        profiler, _ = setup
        snap = profiler.snapshot(100)
        ghost = snap.profile(42)
        assert ghost.mpki == 0.0 and ghost.requests == 0


class TestSimProfilerAttribution:
    """Wall-clock profiler callback attribution (SimProfiler.component_of).

    Regression: partial-wrapped callbacks used to report "partial" (the
    wrapper's type) and callable instances landed in an unattributed
    bucket, so profile reports misattributed whole components.
    """

    def _component_of(self):
        from repro.sim.engine import SimProfiler

        return SimProfiler.component_of

    def test_bound_method_reports_owner_class(self):
        component_of = self._component_of()

        class Widget:
            def poke(self, cycle):
                pass

        assert component_of(Widget().poke) == "Widget"

    def test_plain_function_reports_enclosing_scope(self):
        component_of = self._component_of()

        def handler(cycle):
            pass

        assert component_of(handler).startswith(
            "TestSimProfilerAttribution"
        )

    def test_partial_of_function_unwrapped(self):
        import functools

        component_of = self._component_of()

        def handler(tag, cycle):
            pass

        assert component_of(functools.partial(handler, "x")) == component_of(
            handler
        )

    def test_partial_of_bound_method_unwrapped(self):
        import functools

        component_of = self._component_of()

        class Widget:
            def poke(self, tag, cycle):
                pass

        wrapped = functools.partial(Widget().poke, "x")
        assert component_of(wrapped) == "Widget"

    def test_nested_partial_unwrapped(self):
        import functools

        component_of = self._component_of()

        class Widget:
            def poke(self, a, b, cycle):
                pass

        wrapped = functools.partial(functools.partial(Widget().poke, 1), 2)
        assert component_of(wrapped) == "Widget"

    def test_callable_instance_reports_its_class(self):
        component_of = self._component_of()

        class Relay:
            __slots__ = ()

            def __call__(self, cycle):
                pass

        assert component_of(Relay()) == "Relay"


class TestSimProfileOfARun:
    """End to end on M4/dbp-tcm: the wall-clock profile accounts for the
    whole event loop and charges each event to the component that did the
    work. Read completions are core retire work and must land on Core, not
    on System, which only owns the epoch boundaries."""

    @pytest.fixture(scope="class")
    def profiled(self):
        from repro.config import SystemConfig
        from repro.core.integration import get_approach
        from repro.sim.system import System
        from repro.traces.source import resolve_trace
        from repro.workloads import resolve_mix

        approach = get_approach("dbp-tcm")
        config = SystemConfig().with_scheduler(
            approach.scheduler, **approach.scheduler_params
        )
        traces = [
            resolve_trace(app, 1, 4_000_000) for app in resolve_mix("M4").apps
        ]
        system = System(
            config,
            traces,
            horizon=60_000,
            policy=approach.make_policy(),
            profile=True,
        )
        system.run()
        return system.profile_report(), system.engine.stat_events

    def _shares(self, report):
        return {c["component"]: c["share"] for c in report["components"]}

    def test_components_sum_to_the_loop_time(self, profiled):
        report, _events = profiled
        charged = sum(c["seconds"] for c in report["components"])
        # The wall window also holds policy start-up and the cores' cycle-0
        # kick, which run outside the event loop.
        assert 0.9 * report["wall_seconds"] <= charged
        assert charged <= report["wall_seconds"]

    def test_core_is_charged_for_its_retire_work(self, profiled):
        report, _events = profiled
        assert self._shares(report).get("Core", 0.0) > 0.1

    def test_system_keeps_only_its_own_events(self, profiled):
        report, _events = profiled
        assert self._shares(report).get("System", 0.0) < 0.05

    def test_every_event_is_charged_once(self, profiled):
        report, events = profiled
        assert sum(c["events"] for c in report["components"]) == events
