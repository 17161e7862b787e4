"""Objective, study documents, frontier reports, and the tune CLI."""

import json

import pytest

from repro.campaign.store import STORE_VERSION, ResultStore
from repro.cli import main
from repro.errors import ConfigError
from repro.results.db import ResultIndex, index_path_for
from repro.tuner import (
    CampaignObjective,
    TrialPoint,
    dominates,
    frontier_doc,
    pareto_front,
    run_study,
    scalarize,
    study_path,
    study_summaries,
    trial_rows,
    write_study,
)


def _row(trial_id, ws, ms, params=None, study="s"):
    return {
        "study": study, "trial_id": trial_id, "strategy": "random",
        "objective": "balanced", "base_approach": "dbp",
        "approach": "dbp" if not params else "dbp@tuned",
        "params": params or {}, "mixes": ["M4"], "seed": 1, "horizon": 10000,
        "ws": ws, "ms": ms, "hs": 0.5, "score": ws / ms, "status": "ok",
        "error": None, "cached": 0, "executed": 1, "wall_clock": 0.1,
    }


_HEADER = ("study", "strategy", "objective", "base_approach", "mixes", "seed")


def _study(*rows):
    """The store document of the study ``rows`` (from :func:`_row`) form."""
    doc = {name: rows[0][name] for name in _HEADER}
    doc["trials"] = [
        {k: v for k, v in row.items() if k not in _HEADER} for row in rows
    ]
    return doc


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
        # One fidelity: the study's horizon is the floor and the ceiling.
        # The default point and a searched point plan the same horizon,
        # and no reduced-horizon knob is left to lower it.
        objective = CampaignObjective("dbp", ["M4", "M7"], horizon=40_000)
        searched = TrialPoint(trial_id=1, params=(("epoch_cycles", 20_000),))
        for point in (objective.default_point(), searched):
            specs, _, _ = objective.specs_for(point)
            assert [spec.horizon for spec in specs] == [40_000, 40_000]
        assert not hasattr(objective, "horizon_for")
        with pytest.raises(TypeError):
            CampaignObjective("dbp", ["M4"], min_horizon=10_000)

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
        # No screening rung exists any more; the only rows the frontier
        # leaves out are the ones it cannot place, the unscored failures.
        failed = dict(_row(1, ws=9.0, ms=1.0, params={"a": 1}),
                      ws=None, ms=None, hs=None, score=None,
                      status="failed", error="M4: boom")
        doc = frontier_doc([_row(0, ws=2.0, ms=2.0), failed])
        assert doc["trials"] == 2
        assert doc["evaluated"] == 1  # the failed row is not a candidate
        assert doc["dominating"] == []


class TestTrialsTable:
    """Trial rows come from the study's store document."""

    def test_record_is_idempotent_upsert(self, tmp_path):
        write_study(tmp_path, _study(_row(1, ws=2.0, ms=2.0)))
        write_study(tmp_path, _study(_row(1, ws=3.0, ms=1.5)))  # replaced
        rows = trial_rows(tmp_path, "s")
        assert rows == [_row(1, ws=3.0, ms=1.5)]  # every field, in order
        assert list(rows[0]) == list(_row(1, ws=3.0, ms=1.5))
        assert [summary["study"] for summary in study_summaries(tmp_path)] == ["s"]

    def test_studies_summary_uses_full_fidelity_best(self, tmp_path):
        # Every trial runs the study's full horizon, so the best is simply
        # the highest score.
        write_study(
            tmp_path, _study(_row(1, ws=2.0, ms=2.0), _row(2, ws=9.0, ms=1.0))
        )
        (summary,) = study_summaries(tmp_path)
        assert summary == {
            "study": "s", "strategy": "random", "objective": "balanced",
            "base_approach": "dbp", "trials": 2, "best_score": 9.0,
            "cached": 0, "executed": 2,
        }

    def test_runs_schema_untouched(self, tmp_path):
        # A study document sits three levels deep: the entry glob, the
        # index and `results index` never see it, and no index is made.
        path = write_study(tmp_path, _study(_row(1, ws=2.0, ms=2.0)))
        assert path == tmp_path / "studies" / "s" / "study.json"
        assert json.loads(path.read_text())["version"] == STORE_VERSION
        store = ResultStore(tmp_path, index=False)
        assert list(store.iter_blobs()) == [] and store.entry_count() == 0
        assert not index_path_for(tmp_path).exists()
        with ResultIndex(index_path_for(tmp_path)) as index:
            report = index.sync(store)
            assert (report.scanned, report.malformed, index.count()) == (
                0, 0, 0
            )

    def test_deleting_the_index_keeps_every_study(self, tmp_path):
        # The index is derived from the blobs; a study is not in it.
        write_study(tmp_path, _study(_row(0, ws=2.0, ms=2.0)))
        with ResultIndex(index_path_for(tmp_path)):
            pass
        before = (study_summaries(tmp_path), trial_rows(tmp_path, "s"))
        index_path_for(tmp_path).unlink()
        assert (study_summaries(tmp_path), trial_rows(tmp_path, "s")) == before
        assert trial_rows(tmp_path, "never-ran") == []

    @pytest.mark.parametrize("name", ["a/b", "..", ".", "", "/abs"])
    def test_study_name_is_one_path_component(self, tmp_path, name):
        with pytest.raises(ConfigError, match="one plain path component"):
            study_path(tmp_path, name)


class TestRunStudy:
    def test_random_study_end_to_end_and_rerun_is_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kwargs = dict(
            approach="dbp", strategy="random", budget=2, seed=5,
            mixes=("M4",), horizon=20_000, store=store,
        )
        first = run_study(**kwargs)
        assert len(first.trials) == 3  # baseline + 2 searched
        assert first.trials[0].is_default
        assert all(t.horizon == 20_000 for t in first.trials)
        assert all(t.status == "ok" for t in first.trials)
        assert first.best is not None

        second = run_study(**kwargs)
        assert second.cache_hit_rate == 1.0
        assert [t.approach for t in second.trials] == [
            t.approach for t in first.trials
        ]
        # Idempotent persistence: same study name, same rows.
        rows = trial_rows(store.root, first.study)
        assert len(rows) == 3
        assert [r["approach"] for r in rows] == [
            t.approach for t in first.trials
        ]

    def test_rerun_at_another_horizon_replaces_the_study(self, tmp_path):
        # The default study name carries neither horizon nor budget, so a
        # re-run must drop the earlier run's rows, not mix two horizons.
        store = ResultStore(tmp_path / "store")
        kwargs = dict(strategy="random", seed=1, mixes=("M4",), store=store)
        run_study(budget=2, horizon=20_000, **kwargs)
        second = run_study(budget=1, horizon=30_000, **kwargs)
        rows = trial_rows(store.root, second.study)
        assert [(r["trial_id"], r["horizon"]) for r in rows] == [
            (0, 30_000), (1, 30_000),
        ]

    def test_killed_study_keeps_its_finished_trials(self, tmp_path):
        # The document is rewritten after every trial, so a study that
        # dies mid-search leaves the trials it finished.
        store = ResultStore(tmp_path / "store")
        seen = []

        def die_after_two(trial):
            seen.append(trial)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_study(strategy="random", budget=3, seed=1, mixes=("M4",),
                      horizon=20_000, store=store, progress=die_after_two)
        rows = trial_rows(store.root, "dbp-random-balanced-s1")
        assert [r["trial_id"] for r in rows] == [0, 1]


class TestTuneCLI:
    def _run(self, tmp_path, *argv):
        return main([
            "--horizon", "20000", "--seed", "3", "tune", *argv,
            "--store", str(tmp_path / "store"),
        ])

    def test_tpe_run_report_frontier(self, tmp_path, capsys):
        # No --strategy: tpe is the default, so the explicit tpe re-run
        # below replays the same study.
        assert self._run(
            tmp_path, "run", "--budget", "4", "--mixes", "M4",
        ) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "verdict:" in out

        # An identical re-run is pure cache hits (>= 90% acceptance bar).
        assert self._run(
            tmp_path, "run", "--strategy", "tpe", "--budget", "4",
            "--mixes", "M4",
        ) == 0
        assert "(100% hit rate)" in capsys.readouterr().out

        assert self._run(tmp_path, "report") == 0
        assert "dbp-tpe-balanced-s3" in capsys.readouterr().out

        out_path = tmp_path / "frontier.json"
        assert self._run(tmp_path, "frontier", "--out", str(out_path)) == 0
        assert "verdict:" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["study"] == "dbp-tpe-balanced-s3"
        assert doc["default"]["is_default"]

    def test_halving_run_report_frontier(self, tmp_path, capsys):
        # Halving is gone: its run is refused at parse time and leaves no
        # store, so there is nothing for `report` or `frontier` to read.
        with pytest.raises(SystemExit) as exit_info:
            self._run(tmp_path, "run", "--strategy", "halving",
                      "--budget", "4", "--mixes", "M4")
        assert exit_info.value.code == 2
        assert "invalid choice: 'halving'" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_halving_opts_rejected_for_random(self, tmp_path, capsys):
        for strategy in ("random", "tpe"):
            for option in ("--survivors", "--screen-fidelity"):
                with pytest.raises(SystemExit) as exit_info:
                    self._run(tmp_path, "run", "--strategy", strategy,
                              option, "0.5")
                assert exit_info.value.code == 2
                assert option in capsys.readouterr().err

    def test_frontier_without_studies_errors(self, tmp_path, capsys):
        # A store with an index but no study documents has no studies.
        (tmp_path / "store").mkdir()
        with ResultIndex(index_path_for(tmp_path / "store")):
            pass  # create an empty index
        assert self._run(tmp_path, "frontier") == 1
        assert "no tuning studies" in capsys.readouterr().err

    def test_report_and_frontier_survive_index_deletion(
        self, tmp_path, capsys
    ):
        # Studies are store documents, not index rows: deleting the index
        # changes nothing that `tune report` or `tune frontier` prints.
        assert self._run(
            tmp_path, "run", "--strategy", "random", "--budget", "2",
            "--mixes", "M4", "--quiet",
        ) == 0
        capsys.readouterr()
        study = "dbp-random-balanced-s3"
        reads = [
            ("report",), ("report", "--format", "json"),
            ("report", "--study", study),
            ("report", "--study", study, "--format", "json"),
            ("frontier", "--study", study),
            ("frontier", "--study", study, "--format", "json"),
        ]

        def read_all():
            outputs = []
            for argv in reads:
                assert self._run(tmp_path, *argv) == 0
                outputs.append(capsys.readouterr().out)
            return outputs

        before = read_all()
        assert study in before[0] and "verdict:" in before[4]
        index_path_for(tmp_path / "store").unlink()
        assert read_all() == before

    @pytest.mark.parametrize("name", ["a/b", ".."])
    def test_study_name_must_be_one_path_component(
        self, tmp_path, capsys, name
    ):
        for argv in (
            ("run", "--budget", "1", "--mixes", "M4", "--study", name),
            ("report", "--study", name),
            ("frontier", "--study", name),
        ):
            assert self._run(tmp_path, *argv) == 1
            assert "one plain path component" in capsys.readouterr().err
        # Rejected before anything ran.
        assert ResultStore(tmp_path / "store").entry_count() == 0

    def test_list_tunables(self, capsys):
        assert main(["list", "--tunables"]) == 0
        out = capsys.readouterr().out
        assert "epoch_cycles" in out
        assert "[policy]" in out
        assert "demand.low_mpki_threshold" in out
