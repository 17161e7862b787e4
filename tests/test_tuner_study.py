"""Objective, trial persistence, frontier reports, and the tune CLI."""

import json

import pytest

from repro.campaign.store import ResultStore
from repro.cli import main
from repro.errors import ConfigError
from repro.results.db import SCHEMA_VERSION, ResultIndex, index_path_for
from repro.tuner import (
    CampaignObjective,
    TrialPoint,
    dominates,
    frontier_doc,
    pareto_front,
    record_trial,
    run_study,
    scalarize,
    trial_rows,
)
from repro.tuner.trials import TUNER_SCHEMA_VERSION, studies


def _row(trial_id, ws, ms, params=None, fidelity=1.0, study="s"):
    return {
        "study": study, "trial_id": trial_id, "strategy": "random",
        "objective": "balanced", "base_approach": "dbp",
        "approach": "dbp" if not params else "dbp@tuned",
        "params": params or {}, "mixes": ["M4"], "seed": 1,
        "fidelity": fidelity, "rung": 0, "horizon": 10000,
        "ws": ws, "ms": ms, "hs": 0.5, "score": ws / ms, "status": "ok",
        "error": None, "cached": 0, "executed": 1, "wall_clock": 0.1,
    }


class TestScalarize:
    def test_objectives(self):
        assert scalarize("ws", 2.0, 3.0, 0.5) == 2.0
        assert scalarize("hs", 2.0, 3.0, 0.5) == 0.5
        assert scalarize("ms", 2.0, 3.0, 0.5) == -3.0
        assert scalarize("balanced", 3.0, 2.0, 0.5) == 1.5

    def test_unknown_objective(self):
        with pytest.raises(ConfigError, match="unknown objective"):
            scalarize("bogus", 1.0, 1.0, 1.0)


class TestObjective:
    def test_rejects_parameterized_base(self):
        with pytest.raises(ConfigError, match="base approach"):
            CampaignObjective("dbp@epoch_cycles=20000", ["M4"])

    def test_rejects_empty_mixes(self):
        with pytest.raises(ConfigError, match="at least one mix"):
            CampaignObjective("dbp", [])

    def test_horizon_for_fidelity_has_a_floor(self):
        objective = CampaignObjective(
            "dbp", ["M4"], horizon=40_000, min_horizon=10_000
        )
        assert objective.horizon_for(1.0) == 40_000
        assert objective.horizon_for(0.5) == 20_000
        assert objective.horizon_for(0.01) == 10_000

    def test_osmm_params_land_in_config_not_name(self):
        objective = CampaignObjective("dbp", ["M4"])
        point = TrialPoint(
            trial_id=1,
            params=(("epoch_cycles", 20000), ("migration_budget_pages", 4)),
        )
        specs, name, osmm = objective.specs_for(point)
        assert name == "dbp@epoch_cycles=20000"
        assert osmm == {"migration_budget_pages": 4}
        assert all(s.config.osmm.migration_budget_pages == 4 for s in specs)
        assert all(s.approach == name for s in specs)

    def test_default_point_keeps_the_bare_name(self):
        objective = CampaignObjective("dbp", ["M4", "M7"])
        specs, name, osmm = objective.specs_for(objective.default_point())
        assert name == "dbp"
        assert osmm == {}
        assert len(specs) == 2


class TestPareto:
    def test_dominates(self):
        a, b = _row(1, ws=3.0, ms=1.5), _row(2, ws=2.0, ms=2.0)
        assert dominates(a, b)
        assert not dominates(b, a)
        assert not dominates(a, dict(a, trial_id=3))  # equal point

    def test_front_excludes_dominated(self):
        rows = [
            _row(1, ws=3.0, ms=1.5),
            _row(2, ws=2.0, ms=2.0),   # dominated by 1
            _row(3, ws=3.5, ms=1.8),   # trades off vs 1 -> on front
        ]
        front = {r["trial_id"] for r in pareto_front(rows)}
        assert front == {1, 3}

    def test_verdict_when_tuned_dominates(self):
        rows = [
            _row(0, ws=2.0, ms=2.0),                      # default
            _row(1, ws=3.0, ms=1.5, params={"a": 1}),
        ]
        doc = frontier_doc(rows)
        assert "Pareto-dominate the paper default" in doc["verdict"]
        assert len(doc["dominating"]) == 1

    def test_verdict_when_nothing_dominates(self):
        rows = [
            _row(0, ws=3.0, ms=1.5),                      # default on front
            _row(1, ws=2.0, ms=2.0, params={"a": 1}),
        ]
        doc = frontier_doc(rows)
        assert "no tuned point Pareto-dominates" in doc["verdict"]
        assert doc["dominating"] == []

    def test_verdict_without_baseline(self):
        doc = frontier_doc([_row(1, ws=2.0, ms=2.0, params={"a": 1})])
        assert "no paper-default baseline" in doc["verdict"]

    def test_screening_rows_are_excluded(self):
        rows = [
            _row(0, ws=2.0, ms=2.0),
            _row(1, ws=9.0, ms=1.0, params={"a": 1}, fidelity=0.25),
        ]
        doc = frontier_doc(rows)
        assert doc["evaluated"] == 1  # the screening row is not a candidate
        assert doc["dominating"] == []


class TestTrialsTable:
    def test_record_is_idempotent_upsert(self, tmp_path):
        with ResultIndex(tmp_path / "index.sqlite") as index:
            record_trial(index, _row(1, ws=2.0, ms=2.0))
            record_trial(index, _row(1, ws=3.0, ms=1.5))  # same key, new data
            rows = trial_rows(index)
            assert len(rows) == 1
            assert rows[0]["ws"] == 3.0
            assert rows[0]["params"] == {}
            assert rows[0]["mixes"] == ["M4"]

    def test_studies_summary_uses_full_fidelity_best(self, tmp_path):
        with ResultIndex(tmp_path / "index.sqlite") as index:
            record_trial(index, _row(1, ws=2.0, ms=2.0))
            record_trial(index, _row(2, ws=9.0, ms=1.0, fidelity=0.25))
            (summary,) = studies(index)
            assert summary["trials"] == 2
            assert summary["best_score"] == 1.0  # the fid-1.0 trial's score

    def test_runs_schema_untouched(self):
        # Creating the tuner side table adds its own version row and
        # nothing else: `schema_version` keeps its value and no row lands
        # in `runs`.
        with ResultIndex(":memory:") as index:
            record_trial(index, _row(1, ws=2.0, ms=2.0))
            meta = {
                r["name"]: r["value"]
                for r in index._conn.execute("SELECT * FROM meta")
            }
            assert meta["schema_version"] == str(SCHEMA_VERSION)
            assert meta["tuner_schema_version"] == str(TUNER_SCHEMA_VERSION)
            assert index.count() == 0

    def test_version_bump_rebuilds_only_tuner_table(self, tmp_path):
        path = tmp_path / "index.sqlite"
        with ResultIndex(path) as index:
            with index._conn:
                index._conn.execute(
                    "INSERT INTO runs (key, version) VALUES ('k', 1)"
                )
            record_trial(index, _row(1, ws=2.0, ms=2.0))
            index._conn.execute(
                "UPDATE meta SET value='0' WHERE name='tuner_schema_version'"
            )
            record_trial(index, _row(2, ws=3.0, ms=1.5))
            rows = trial_rows(index)
            assert [r["trial_id"] for r in rows] == [2]  # old row dropped
        # The runs table and its version row ride through the tuner
        # rebuild, so reopening the file rebuilds nothing either.
        with ResultIndex(path) as index:
            meta = {
                r["name"]: r["value"]
                for r in index._conn.execute("SELECT * FROM meta")
            }
            assert meta == {
                "schema_version": str(SCHEMA_VERSION),
                "tuner_schema_version": str(TUNER_SCHEMA_VERSION),
            }
            assert index.count() == 1
            assert [r["trial_id"] for r in trial_rows(index)] == [2]


class TestRunStudy:
    def test_random_study_end_to_end_and_rerun_is_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kwargs = dict(
            approach="dbp", strategy="random", budget=2, seed=5,
            mixes=("M4",), horizon=20_000, store=store,
        )
        with ResultIndex(index_path_for(store.root)) as index:
            first = run_study(index=index, **kwargs)
            assert len(first.trials) == 3  # baseline + 2 searched
            assert first.trials[0].is_default
            assert first.trials[0].point.fidelity == 1.0
            assert all(t.status == "ok" for t in first.trials)
            assert first.best is not None

            second = run_study(index=index, **kwargs)
            assert second.cache_hit_rate == 1.0
            assert [t.approach for t in second.trials] == [
                t.approach for t in first.trials
            ]
            # Idempotent persistence: same study name, same rows.
            rows = trial_rows(index, first.study)
            assert len(rows) == 3


class TestTuneCLI:
    def _run(self, tmp_path, *argv):
        return main([
            "--horizon", "20000", "--seed", "3", "tune", *argv,
            "--store", str(tmp_path / "store"),
        ])

    def test_halving_run_report_frontier(self, tmp_path, capsys):
        assert self._run(
            tmp_path, "run", "--strategy", "halving", "--budget", "4",
            "--mixes", "M4",
        ) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "verdict:" in out

        # An identical re-run is pure cache hits (>= 90% acceptance bar).
        assert self._run(
            tmp_path, "run", "--strategy", "halving", "--budget", "4",
            "--mixes", "M4",
        ) == 0
        assert "(100% hit rate)" in capsys.readouterr().out

        assert self._run(tmp_path, "report") == 0
        assert "dbp-halving-balanced-s3" in capsys.readouterr().out

        out_path = tmp_path / "frontier.json"
        assert self._run(tmp_path, "frontier", "--out", str(out_path)) == 0
        assert "verdict:" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["study"] == "dbp-halving-balanced-s3"
        assert doc["default"]["is_default"]

    def test_halving_opts_rejected_for_random(self, tmp_path, capsys):
        assert self._run(
            tmp_path, "run", "--strategy", "random", "--survivors", "0.5",
        ) == 1
        assert "halving" in capsys.readouterr().err

    def test_frontier_without_studies_errors(self, tmp_path, capsys):
        # A store that exists but holds no studies is the clearer error;
        # a missing store directory errors out even earlier.
        (tmp_path / "store").mkdir()
        with ResultIndex(index_path_for(tmp_path / "store")):
            pass  # create an empty index
        assert self._run(tmp_path, "frontier") == 1
        assert "no tuning studies" in capsys.readouterr().err

    def test_list_tunables(self, capsys):
        assert main(["list", "--tunables"]) == 0
        out = capsys.readouterr().out
        assert "epoch_cycles" in out
        assert "[policy]" in out
        assert "demand.low_mpki_threshold" in out
