"""CLI tests driving main(argv) directly."""

import pytest

from repro.cli import main


class TestList:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "experiments:" in out
        assert "dbp-tcm" in out
        assert "M1" in out


class TestConfig:
    def test_config_prints_system(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "DDR3-1066" in out
        assert "Bank colors" in out


class TestMix:
    def test_mix_runs_default_approaches(self, capsys):
        assert main(["--horizon", "20000", "mix", "M4"]) == 0
        out = capsys.readouterr().out
        assert "shared-frfcfs" in out
        assert "dbp" in out
        assert "WS" in out

    def test_unknown_mix_errors(self, capsys):
        assert main(["--horizon", "20000", "mix", "M99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_approach_errors(self, capsys):
        assert main(["--horizon", "20000", "mix", "M4", "warp-drive"]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_t3(self, capsys):
        assert main(["run", "T3"]) == 0
        assert "Workload mixes" in capsys.readouterr().out

    def test_run_t1(self, capsys):
        assert main(["run", "T1"]) == 0
        assert "configuration" in capsys.readouterr().out

    def test_run_f2_with_mix_subset(self, capsys):
        assert main(["--horizon", "20000", "run", "F2", "--mixes", "M4"]) == 0
        out = capsys.readouterr().out
        assert "Weighted speedup" in out
        assert "gmean" in out

    def test_run_unknown_experiment_errors(self, capsys):
        assert main(["run", "F77"]) == 1
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_trace_renders_timeline_and_decisions(self, capsys):
        assert main(["--horizon", "45000", "trace", "M4"]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out
        assert "scheduler" in out

    def test_trace_streams_then_rerenders_from_jsonl(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        assert main(
            ["--horizon", "45000", "trace", "M4", "--stream", str(stream)]
        ) == 0
        live = capsys.readouterr().out
        assert f"streamed" in live
        assert stream.exists()

        assert main(["trace", "--from-jsonl", str(stream)]) == 0
        stored = capsys.readouterr().out
        assert "epochs" in stored
        # The stored rendering repeats the live tables verbatim.
        for line in live.splitlines():
            if line.startswith("| "):
                assert line in stored

    def test_trace_small_capacity_reports_dropped_epochs(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "run.jsonl"
        assert main(
            [
                "--horizon", "130000", "trace", "M4",
                "--capacity", "2", "--stream", str(stream),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "--from-jsonl", str(stream)]) == 0
        out = capsys.readouterr().out
        # All 5 boundaries survive on disk even though the ring held 2.
        assert "epochs=5" in out
        assert "dropped_epochs=0" in out

    def test_from_jsonl_with_mix_is_an_error(self, tmp_path, capsys):
        assert main(
            ["trace", "M4", "--from-jsonl", str(tmp_path / "x.jsonl")]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_without_mix_or_jsonl_is_an_error(self, capsys):
        assert main(["trace"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_jsonl_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"kind": "header", "schema": "repro-dbp-telemetry",'
            ' "schema_version": 1, "seq": 0}\n'
            '{"cycle": 10000, "truncat\n'
        )
        assert main(["trace", "--from-jsonl", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "corrupt" in err

    def test_missing_jsonl_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["trace", "--from-jsonl", str(tmp_path / "nope.jsonl")]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_profile_prints_breakdown(self, capsys):
        assert main(
            ["--horizon", "30000", "trace", "M4", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles/sec" in out
        assert "ChannelController" in out


class TestMetrics:
    def test_metrics_prometheus_output(self, capsys):
        assert main(["--horizon", "20000", "metrics", "M4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_ctrl_requests_served_total counter" in out
        assert "repro_sim_cycles 20000" in out

    def test_metrics_json_output(self, capsys):
        assert main(
            ["--horizon", "20000", "metrics", "M4", "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        import json

        snapshot = json.loads(out)
        names = [m["name"] for m in snapshot["metrics"]]
        assert "repro_dram_commands_total" in names

    def test_metrics_unknown_mix_errors(self, capsys):
        assert main(["metrics", "M99"]) == 1
        assert "error" in capsys.readouterr().err


class TestOutOfDomainOptions:
    """Counts, deadlines and tolerances are checked by argparse, not
    clamped or mis-run later."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--mixes", "M4", "--jobs", "0"],
            ["campaign", "--mixes", "M4", "--jobs", "-3"],
            ["campaign", "--mixes", "M4", "--retries", "-1"],
            ["run", "T3", "--jobs", "0"],
            ["tune", "run", "--jobs", "0"],
            ["tune", "run", "--retries", "-1"],
            ["tune", "run", "--budget", "0"],
            ["campaign", "--mixes", "M4", "--jobs", "two"],
            ["campaign", "--mixes", "M4", "--timeout", "-1"],
            ["campaign", "--mixes", "M4", "--timeout", "0"],
            ["campaign", "--mixes", "M4", "--timeout", "nan"],
            ["campaign", "--mixes", "M4", "--timeout", "inf"],
            ["tune", "run", "--timeout", "nan"],
            ["campaign", "--mixes", "M4", "--timeout", "soon"],
            ["results", "compare", "a", "b", "--tolerance", "-1"],
            ["results", "compare", "a", "b", "--tolerance", "nan"],
            ["results", "compare", "a", "b", "--tolerance", "inf"],
        ],
    )
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}" in err
        assert any(
            text in err
            for text in ("must be >", "invalid int value", "invalid float value")
        )

    def test_boundary_values_are_accepted(self, tmp_path, capsys):
        argv = [
            "--horizon", "20000", "campaign", "--mixes", "M4",
            "--approaches", "ebp", "--jobs", "1", "--retries", "0",
            "--store", str(tmp_path / "store"), "--quiet",
        ]
        assert main(argv) == 0
        assert "1 executed" in capsys.readouterr().out


class TestResultsIndexSource:
    def test_missing_store_fails_like_the_readers(self, tmp_path, capsys):
        missing = tmp_path / "no-such-store"
        for verb in (["index"], ["query"], ["gates"]):
            assert main(["results", *verb, "--store", str(missing)]) == 1
            err = capsys.readouterr().err
            assert "no index database or store directory at" in err
        assert not missing.exists()

    def test_existing_empty_store_indexes_to_zero_rows(self, tmp_path, capsys):
        empty = tmp_path / "store"
        empty.mkdir()
        assert main(["results", "index", "--store", str(empty)]) == 0
        assert "index rows: 0" in capsys.readouterr().out


class TestOneKernel:
    """The controller has one decision kernel and no way to ask for another."""

    def test_kernel_flag_is_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--kernel", "fast", "list"])
        assert exit_info.value.code == 2
        assert "usage: repro-dbp" in capsys.readouterr().err

    def test_constructors_take_no_kernel(self, small_config):
        from repro.sim.runner import Runner
        from repro.sim.system import System

        with pytest.raises(TypeError):
            Runner(config=small_config, kernel="fast")
        with pytest.raises(TypeError):
            System(small_config, [], horizon=1_000, kernel="fast")


class TestOneBenchmarkSystem:
    """Performance is recorded by the e2e benchmark alone; the result
    service keeps no benchmark-trajectory verb or API."""

    def test_perf_trend_is_gone(self, capsys):
        import repro.results

        with pytest.raises(SystemExit) as exit_info:
            main(["results", "perf-trend"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not hasattr(repro.results, "sync_bench_dir")


#: Every registered command line that must parse: the 13 top-level
#: commands and each results/tune/store/traces verb.
HELP_TARGETS = [
    [command]
    for command in (
        "list", "config", "run", "campaign", "results", "store", "tune",
        "trace", "perf", "metrics", "mix", "traces", "gen-traces",
    )
] + [
    [command, verb]
    for command, verbs in (
        ("results", ("index", "query", "compare", "gates")),
        ("tune", ("run", "report", "frontier")),
        ("store", ("stats", "ls", "gc")),
        ("traces", ("import", "list", "info", "export")),
    )
    for verb in verbs
]


class TestRegistryCompleteness:
    @pytest.mark.parametrize("target", HELP_TARGETS, ids=" ".join)
    def test_help_exits_zero_with_usage(self, target, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*target, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro-dbp " + target[0])

    def test_every_subparser_binds_a_handler(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        for argv in (
            ["list"], ["config"], ["run", "T3"], ["campaign"],
            ["results", "index"], ["results", "query"],
            ["results", "compare", "a", "b"], ["results", "gates"],
            ["store", "stats"], ["store", "ls"],
            ["store", "gc"], ["tune", "run"], ["tune", "report"],
            ["tune", "frontier"], ["trace"], ["perf"], ["metrics", "M4"],
            ["mix", "M4"], ["traces", "list"], ["gen-traces", "mcf"],
        ):
            assert callable(parser.parse_args(argv).handler), argv
