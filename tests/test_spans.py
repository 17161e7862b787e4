"""Flight-recorder span tracing: tracer units, file merge, and the
campaign supervisor's cross-process timeline.

The acceptance scenario lives in :class:`TestCampaignSpans`: a faulty
mini-campaign (one SIGKILL, one transient) must produce a single merged
Perfetto-loadable span file whose ``fault-retry`` span nests — by time
containment on the same pid/tid lane — under its run span.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ResultStore, RunSpec, execute
from repro.campaign.executor import _WORKER_STORES
from repro.faults import FaultPlan, FaultSpec
from repro.faults import reset as faults_reset
from repro.telemetry.spans import (
    SpanTracer,
    current_tracer,
    install_tracer,
    load_trace_file,
    merge_trace_files,
    merge_traces,
    now_us,
    uninstall_tracer,
    write_trace_file,
)


@pytest.fixture(autouse=True)
def _clean_process_state():
    """No tracer, store handle, or fault plan leaks across tests."""
    uninstall_tracer()
    _WORKER_STORES.clear()
    faults_reset()
    yield
    uninstall_tracer()
    _WORKER_STORES.clear()
    faults_reset()


def _x_events(doc, name=None):
    return [
        e
        for e in doc["traceEvents"]
        if e.get("ph") == "X" and (name is None or e["name"] == name)
    ]


def _contains(outer, inner):
    """Chrome-trace containment: same pid/tid, inner inside outer."""
    return (
        outer["pid"] == inner["pid"]
        and outer["tid"] == inner["tid"]
        and outer["ts"] <= inner["ts"]
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    )


class TestSpanTracer:
    def test_begin_end_nest_by_containment(self):
        tracer = SpanTracer("t", pid=7)
        tracer.begin("outer", depth=1)
        tracer.begin("inner")
        tracer.end()
        tracer.end(extra="yes")
        outer = _x_events(tracer.to_chrome(), "outer")[0]
        inner = _x_events(tracer.to_chrome(), "inner")[0]
        assert _contains(outer, inner)
        assert outer["args"] == {"depth": 1, "extra": "yes"}
        assert outer["pid"] == 7

    def test_span_context_manager_closes_on_error(self):
        tracer = SpanTracer("t")
        with pytest.raises(ValueError):
            with tracer.span("guarded"):
                raise ValueError("boom")
        assert len(_x_events(tracer.to_chrome(), "guarded")) == 1

    def test_complete_clamps_duration_to_one(self):
        tracer = SpanTracer("t")
        tracer.complete("tiny", now_us(), 0)
        assert _x_events(tracer.to_chrome(), "tiny")[0]["dur"] == 1

    def test_lanes_are_stable_and_named(self):
        tracer = SpanTracer("t")
        a = tracer.lane("M4/dbp")
        b = tracer.lane("M5/ebp")
        assert a != b and a != tracer.MAIN_LANE
        assert tracer.lane("M4/dbp") == a
        names = {
            e["tid"]: e["args"]["name"]
            for e in tracer.events()
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert names[a] == "M4/dbp"
        assert names[b] == "M5/ebp"

    def test_instant_records_marker(self):
        tracer = SpanTracer("t")
        tracer.instant("cached", index=3)
        (event,) = [
            e for e in tracer.events() if e.get("ph") == "i"
        ]
        assert event["name"] == "cached"
        assert event["args"] == {"index": 3}

    def test_install_returns_previous(self):
        first = SpanTracer("one")
        second = SpanTracer("two")
        assert install_tracer(first) is None
        assert current_tracer() is first
        assert install_tracer(second) is first
        install_tracer(first)
        assert current_tracer() is first
        uninstall_tracer()
        assert current_tracer() is None


class TestTraceFiles:
    def test_write_load_round_trip(self, tmp_path):
        tracer = SpanTracer("t")
        tracer.complete("s", now_us(), 5)
        path = str(tmp_path / "trace.json")
        tracer.write(path)
        doc = load_trace_file(path)
        assert _x_events(doc, "s")
        # Perfetto's legacy importer needs the JSON Object Format.
        assert json.load(open(path))["traceEvents"]

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"not": "a trace"}')
        with pytest.raises(ValueError):
            load_trace_file(str(path))

    def test_merge_skips_missing_files(self, tmp_path):
        tracer = SpanTracer("t")
        tracer.complete("kept", now_us(), 5)
        kept = str(tmp_path / "kept.json")
        tracer.write(kept)
        merged = merge_trace_files([kept, str(tmp_path / "killed.json")])
        assert _x_events(merged, "kept")

    def test_merge_sorts_metadata_first(self):
        early = SpanTracer("early", pid=1)
        late = SpanTracer("late", pid=2)
        early.complete("a", 100, 5)
        late.complete("b", 50, 5)
        merged = merge_traces([early.to_chrome(), late.to_chrome()])
        phases = [e.get("ph") for e in merged["traceEvents"]]
        first_x = phases.index("X")
        assert all(ph == "M" for ph in phases[:first_x])
        xs = [e for e in merged["traceEvents"] if e.get("ph") == "X"]
        assert [e["name"] for e in xs] == ["b", "a"]

    def test_merge_extra_appends_in_memory_documents(self, tmp_path):
        sup = SpanTracer("supervisor")
        sup.complete("campaign", now_us(), 10)
        merged = merge_trace_files([], extra=[sup.to_chrome()])
        assert _x_events(merged, "campaign")


class TestRunnerSpans:
    def test_run_mix_emits_nested_phases(self, fast_runner, tmp_path):
        tracer = SpanTracer("test-run")
        install_tracer(tracer)
        fast_runner.run_apps(["lbm", "gcc"], "dbp-tcm")
        uninstall_tracer()
        doc = tracer.to_chrome()
        run = _x_events(doc, "run")[0]
        measure = _x_events(doc, "measure")[0]
        baselines = _x_events(doc, "alone-baselines")[0]
        assert _contains(run, measure)
        assert _contains(run, baselines)
        assert _x_events(doc, "alone-run")
        assert measure["args"]["approach"] == "dbp-tcm"

    def test_no_tracer_costs_nothing_and_records_nothing(self, fast_runner):
        assert current_tracer() is None
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        assert result.metrics is not None


def _spec(small_config, approach="shared-frfcfs", mix_name="SPANS"):
    return RunSpec(
        apps=("lbm", "gcc"),
        approach=approach,
        config=small_config,
        horizon=30_000,
        target_insts=200_000,
        mix_name=mix_name,
    )


class TestCampaignSpans:
    def test_serial_campaign_merges_worker_parts(
        self, small_config, tmp_path
    ):
        spans = tmp_path / "campaign.json"
        store = ResultStore(tmp_path / "store")
        result = execute(
            [_spec(small_config)], store=store, spans=str(spans)
        )
        assert result.outcomes[0].status == "ok"
        doc = load_trace_file(str(spans))
        campaign = _x_events(doc, "campaign")[0]
        sup_run = [
            e for e in _x_events(doc, "run") if e["tid"] != 0
        ]
        assert sup_run, "supervisor must lay the run out on a spec lane"
        # Worker spans (runner-level "measure") made it into the merge.
        assert _x_events(doc, "measure")
        attempts = _x_events(doc, "attempt")
        assert attempts and attempts[0]["args"]["outcome"] == "ok"
        assert campaign["args"]["runs"] == 1
        # Part files are consumed by the merge.
        assert not list(tmp_path.glob("campaign.json.parts/*.json"))

    def test_cached_outcomes_appear_as_instants(
        self, small_config, tmp_path
    ):
        spans = tmp_path / "c.json"
        store = ResultStore(tmp_path / "store")
        execute([_spec(small_config)], store=store)
        execute([_spec(small_config)], store=store, spans=str(spans))
        doc = load_trace_file(str(spans))
        assert any(
            e["name"] == "run-cached"
            for e in doc["traceEvents"]
            if e.get("ph") == "i"
        )

    def test_faulty_campaign_nests_retry_under_run_span(
        self, small_config, tmp_path
    ):
        """Acceptance: SIGKILL + transient in one campaign -> one merged
        Perfetto-loadable file, retry spans nested under run spans."""
        specs = [
            _spec(small_config, mix_name="KILLED"),
            _spec(small_config, approach="ebp", mix_name="FLAKY"),
        ]
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(
                    site="worker.run", kind="crash", match="KILLED/*",
                    times=1,
                ),
                FaultSpec(
                    site="worker.run", kind="transient", match="FLAKY/*",
                    times=1,
                ),
            ),
        )
        spans = tmp_path / "faulty.json"
        store = ResultStore(tmp_path / "store")
        result = execute(
            specs,
            jobs=2,
            store=store,
            retries=2,
            backoff=0.01,
            faults=plan,
            spans=str(spans),
        )
        assert {o.status for o in result.outcomes} == {"ok"}
        doc = load_trace_file(str(spans))
        retries = _x_events(doc, "fault-retry")
        assert retries, "both injected faults must leave retry spans"
        runs = _x_events(doc, "run")
        for retry in retries:
            assert any(
                _contains(run, retry) for run in runs
            ), f"retry span {retry} not nested under any run span"
        # Every retried spec still settled with an ok run span.
        ok_runs = [
            e for e in runs if e.get("args", {}).get("status") == "ok"
        ]
        assert len(ok_runs) >= len(specs)

    def test_pooled_campaign_runs_each_alone_baseline_once(
        self, small_config, tmp_path
    ):
        """Two mixes sharing an app on two workers: one ``alone-run`` span
        per distinct app, and none for other approaches on the same store."""

        def grid(*approaches):
            return [
                RunSpec(
                    apps=apps,
                    approach=approach,
                    config=small_config,
                    horizon=30_000,
                    target_insts=200_000,
                    mix_name=mix_name,
                )
                for mix_name, apps in (
                    ("A", ("lbm", "gcc")), ("B", ("lbm", "mcf")),
                )
                for approach in approaches
            ]

        def alone_apps(specs, name):
            spans = tmp_path / name
            result = execute(specs, jobs=2, store=store, spans=str(spans))
            assert [o.status for o in result.outcomes] == ["ok"] * len(specs)
            return sorted(
                e["args"]["app"]
                for e in _x_events(load_trace_file(str(spans)), "alone-run")
            )

        store = ResultStore(tmp_path / "store")
        assert alone_apps(grid("shared-frfcfs", "ebp"), "cold.json") == [
            "gcc", "lbm", "mcf",
        ]
        assert alone_apps(grid("dbp"), "warm.json") == []
