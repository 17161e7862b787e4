"""CLI tests driving main(argv) directly."""

import json

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
    """``explain``'s default section: one mix under several approaches."""

    def test_mix_runs_default_approaches(self, capsys):
        assert main(["--horizon", "20000", "explain", "M4"]) == 0
        out = capsys.readouterr().out
        assert "shared-frfcfs" in out
        assert "dbp" in out
        assert "WS" in out

    def test_unknown_mix_errors(self, capsys):
        assert main(["--horizon", "20000", "explain", "M99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_approach_errors(self, capsys):
        assert main(["--horizon", "20000", "explain", "M4", "warp-drive"]) == 1
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

    @pytest.mark.parametrize("exp_id", ["F7", "f1", "T1", "T2", "T3"])
    def test_mixes_rejected_where_the_experiment_takes_none(
        self, exp_id, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", exp_id, "--mixes", "M1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"experiment {exp_id.upper()} takes no --mixes" in err


def _tables(out):
    """The timeline and decisions tables of an ``explain`` output."""
    return out[out.index("Epoch timeline"):].split("\n\nwrote ")[0].rstrip()


class TestTrace:
    """``explain --show timeline,decisions`` and the epoch log."""

    def test_trace_renders_timeline_and_decisions(self, capsys):
        assert main(
            [
                "--horizon", "45000", "explain", "M4", "dbp-tcm",
                "--show", "timeline,decisions",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cycle" in out
        assert "scheduler" in out

    def test_log_round_trips_through_from_log(self, tmp_path, capsys):
        log = tmp_path / "epochs.json"
        show = ["--show", "timeline,decisions"]
        assert main(
            [
                "--horizon", "60000", "explain", "M4", "dbp-tcm", *show,
                "--log", str(log),
            ]
        ) == 0
        live = capsys.readouterr().out
        assert f"wrote 2 epoch records to {log}" in live
        assert main(["explain", "--from-log", str(log), *show]) == 0
        stored = capsys.readouterr().out
        assert "M4 under dbp-tcm  (horizon 60000, seed 1)" in stored
        assert _tables(stored) == _tables(live)
        assert "Policy decisions:" in _tables(live)

    def test_json_log_round_trips_through_from_log(self, tmp_path, capsys):
        log = tmp_path / "epochs.json"
        show = ["--show", "timeline,decisions", "--format", "json"]
        assert main(
            [
                "--horizon", "60000", "explain", "M4", "dbp-tcm", *show,
                "--log", str(log),
            ]
        ) == 0
        live = json.loads(capsys.readouterr().out)
        assert main(["explain", "--from-log", str(log), *show]) == 0
        stored = json.loads(capsys.readouterr().out)
        assert stored["runs"] == live["runs"]
        (run,) = live["runs"]
        assert run["approach"] == "dbp-tcm"
        assert len(run["timeline"]) == 2
        assert run["decisions"]

    def test_log_needs_exactly_one_approach(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", "M4", "ebp", "dbp", "--log", str(tmp_path / "x")])
        assert exit_info.value.code == 2
        assert "name one APPROACH" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["M4", "--from-log", "x.json"],
            ["--from-log", "x.json", "--show", "summary"],
            ["--from-log", "x.json", "--log", "y.json"],
            [],
        ],
        ids=["with-mix", "summary", "with-log", "nothing"],
    )
    def test_from_log_misuse_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", *argv])
        assert exit_info.value.code == 2
        assert "usage: repro-dbp explain" in capsys.readouterr().err

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["explain", "--from-log", str(missing)]) == 1
        err = capsys.readouterr().err
        assert f"error: corrupt epoch log {missing}" in err

    def test_trace_profile_prints_breakdown(self, capsys):
        assert main(
            [
                "--horizon", "30000", "explain", "M4", "dbp-tcm",
                "--show", "timeline,profile",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles/sec" in out
        assert "ChannelController" in out


class TestMetrics:
    def test_metrics_prometheus_output(self, capsys):
        assert main(
            ["--horizon", "20000", "explain", "M4", "dbp-tcm", "--show", "metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP ")
        assert "# TYPE repro_ctrl_requests_served_total counter" in out
        assert "repro_sim_cycles 20000" in out

    def test_metrics_json_output(self, capsys):
        assert main(
            [
                "--horizon", "20000", "explain", "M4", "dbp-tcm",
                "--show", "metrics", "--format", "json",
            ]
        ) == 0
        out = capsys.readouterr().out
        import json

        snapshot = json.loads(out)["runs"][0]["metrics"]
        names = [m["name"] for m in snapshot["metrics"]]
        assert "repro_dram_commands_total" in names

    def test_metrics_unknown_mix_errors(self, capsys):
        assert main(["explain", "M99", "--show", "metrics"]) == 1
        assert "error" in capsys.readouterr().err


class TestOneExplainVerb:
    """``explain`` replaced ``mix``, ``trace``, ``perf`` and ``metrics``."""

    @pytest.mark.parametrize("verb", ["mix", "trace", "perf", "metrics"])
    def test_old_verb_is_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "M4"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_perf_sections(self, capsys):
        assert main(
            [
                "--horizon", "20000", "explain", "M4", "dbp-tcm",
                "--show", "profile,kernel",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("M4 under dbp-tcm  (horizon 20000, seed 1)\n")
        assert "wake-memo short-circuits" in out

    def test_unknown_section_is_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", "M4", "--show", "summary,colours"])
        assert exit_info.value.code == 2
        assert "unknown section(s) 'colours'" in capsys.readouterr().err


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
            ["explain", "M4", "--last", "0"],
            ["explain", "M4", "--last", "-1"],
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
            assert "no store directory at" in err
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


#: Every registered command line that must parse: the 8 top-level
#: commands and each results/tune/traces verb.
HELP_TARGETS = [
    [command]
    for command in (
        "list", "config", "run", "campaign", "results", "tune",
        "explain", "traces",
    )
] + [
    [command, verb]
    for command, verbs in (
        ("results", (
            "index", "query", "compare", "gates", "stats", "ls", "gc",
        )),
        ("tune", ("run", "report", "frontier")),
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
            ["results", "stats"], ["results", "ls"],
            ["results", "gc"], ["tune", "run"], ["tune", "report"],
            ["tune", "frontier"], ["explain", "M4"],
            ["explain", "--from-log", "x.json"], ["traces", "list"],
            ["traces", "export", "mcf"],
        ):
            assert callable(parser.parse_args(argv).handler), argv

    @pytest.mark.parametrize(
        "argv",
        [["store", "stats"], ["gen-traces", "mcf"], ["traces", "mcf"]],
        ids=" ".join,
    )
    def test_folded_verb_is_gone(self, argv, capsys):
        # `store` folded into `results`, `gen-traces` into `traces export`;
        # `traces APP...` (static trace analysis) is gone.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["results", "index"], ["results", "query"], ["results", "gates"],
            ["tune", "run"], ["tune", "report"], ["tune", "frontier"],
        ],
        ids=" ".join,
    )
    def test_index_file_option_is_gone(self, argv, capsys):
        # Every index is <store>/index.sqlite; --store names it.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--db", "x.sqlite"])
        assert exit_info.value.code == 2
        assert "--db" in capsys.readouterr().err
