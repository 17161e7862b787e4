"""Experiment catalog tests: each experiment runs at tiny scope and
produces a well-formed, renderable result."""

import math

import pytest

from repro.campaign import ResultStore
from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.report import ExperimentResult, percent_delta, render_table


TINY_MIXES = ["M4"]


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", 1.23456], ["yy", 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "1.235" in text
        assert len(lines) == 4

    def test_result_render_includes_summary(self):
        result = ExperimentResult(
            "FX", "demo", ["col"], [[1.0]], summary={"delta": 4.25}
        )
        text = result.render()
        assert "[FX] demo" in text
        assert "+4.25%" in text

    def test_column_access(self):
        result = ExperimentResult("FX", "demo", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]

    def test_percent_delta(self):
        assert percent_delta(1.05, 1.0) == pytest.approx(5.0)
        with pytest.raises(ZeroDivisionError):
            percent_delta(1.0, 0.0)

    def test_to_csv(self):
        result = ExperimentResult("FX", "demo", ["a", "b"], [["x", 1.5]])
        lines = result.to_csv().strip().splitlines()
        assert lines == ["a,b", "x,1.5"]

    def test_to_json_roundtrip(self):
        import json

        result = ExperimentResult(
            "FX", "demo", ["a"], [[1.0]], summary={"d": 2.0}, notes="n"
        )
        data = json.loads(result.to_json())
        assert data["exp_id"] == "FX"
        assert data["rows"] == [[1.0]]
        assert data["summary"] == {"d": 2.0}
        assert data["notes"] == "n"


class TestTables:
    def test_t1_lists_config(self, fast_runner):
        result = run_experiment("T1", fast_runner)
        params = result.column("parameter")
        assert any("DRAM" in p for p in params)

    def test_t2_measures_characteristics(self, fast_runner):
        result = run_experiment("T2", fast_runner, apps=["lbm", "gcc"])
        rows = {row[0]: row for row in result.rows}
        assert rows["lbm"][2] > rows["gcc"][2]  # mpki ordering
        assert rows["lbm"][5] == "intensive"
        assert rows["gcc"][5] == "light"

    def test_t3_lists_all_mixes(self, fast_runner):
        result = run_experiment("T3", fast_runner)
        assert len(result.rows) >= 16
        assert result.rows[0][0].startswith(("D", "M", "O"))


class TestFigures:
    def test_f1_shape(self, fast_runner):
        result = run_experiment(
            "F1", fast_runner, apps=["lbm"], bank_counts=(1, 4)
        )
        row = result.rows[0]
        assert row[0] == "lbm"
        assert row[1] < row[2] * 1.05  # fewer banks not better
        assert row[2] == pytest.approx(1.0)

    def test_f2_f3_share_runs(self, fast_runner, tmp_path):
        fast_runner.store = ResultStore(tmp_path / "store")
        stats = fast_runner.store.stats
        f2 = run_experiment("F2", fast_runner, mixes=TINY_MIXES)
        written = stats.writes
        f3 = run_experiment("F3", fast_runner, mixes=TINY_MIXES)
        # Every F3 cell (mix x approach column) is an F2 cell, served
        # from the store.
        assert written > 0 and stats.writes == written
        assert stats.hits == len(TINY_MIXES) * (len(f3.columns) - 1)
        assert f2.rows[-1][0] == "gmean"
        assert "dbp_vs_ebp_ws_pct" in f2.summary
        assert "dbp_vs_ebp_ms_pct" in f3.summary
        for row in f2.rows:
            for value in row[1:]:
                assert isinstance(value, float) and not math.isnan(value)

    def test_f8_epoch_sweep(self, fast_runner):
        result = run_experiment(
            "F8", fast_runner, mixes=TINY_MIXES, epochs=(5_000, 10_000)
        )
        assert [row[0] for row in result.rows] == ["5000", "10000"]
        assert all(row[1] > 0 for row in result.rows)

    def test_f9_ablation_variants(self, fast_runner):
        result = run_experiment("F9", fast_runner, mixes=TINY_MIXES)
        assert [row[0] for row in result.rows] == [
            "full",
            "blp-only",
            "mpki",
            "no-pool",
        ]

    def test_f13_seed_rows(self, fast_runner):
        result = run_experiment(
            "F13", fast_runner, mixes=TINY_MIXES, seeds=(1, 2)
        )
        assert [row[0] for row in result.rows] == ["1", "2"]
        assert "min_ws_delta_pct" in result.summary


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(EXPERIMENTS) == {
            "T1",
            "T2",
            "T3",
            "F1",
            "F2",
            "F3",
            "F4",
            "F5",
            "F6",
            "F7",
            "F8",
            "F9",
            "F10",
            "F11",
            "F12",
            "F13",
        }

    def test_dispatch_case_insensitive(self, fast_runner):
        result = run_experiment("t3", fast_runner)
        assert result.exp_id == "T3"

    def test_unknown_id_rejected(self, fast_runner):
        with pytest.raises(ExperimentError):
            run_experiment("F99", fast_runner)

    @pytest.mark.parametrize(
        "exp_id, scope",
        [("F7", {"mixes": ["M1"]}), ("T3", {"mixes": ["M1"]}), ("F6", {"seeds": (1,)})],
    )
    def test_scope_the_experiment_does_not_take_is_rejected(
        self, fast_runner, exp_id, scope
    ):
        with pytest.raises(ExperimentError, match=f"experiment {exp_id} takes no"):
            run_experiment(exp_id, fast_runner, **scope)
