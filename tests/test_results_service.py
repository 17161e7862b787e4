"""Result service tests: SQLite index, views, compare, gates, store CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import ResultStore
from repro.campaign.store import STORE_VERSION
from repro.results import (
    PAPER_GATES,
    CompareSummary,
    DeltaGate,
    OrderingGate,
    ResultIndex,
    ResultsError,
    approach_rollup,
    compare_indexes,
    evaluate_gates,
    gain_pct,
    gate_from_dict,
    gate_to_dict,
    geomean,
    index_path_for,
    intensity_breakdown,
    load_gates_file,
    open_index,
    pair_deltas,
    render_compare,
    render_pair_deltas,
    row_from_doc,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Synthetic store documents (no simulation needed).
# ---------------------------------------------------------------------------
def fake_doc(
    key: str,
    *,
    mix: str = "M4",
    approach: str = "dbp",
    ws: float = 3.0,
    hs: float = 0.8,
    ms: float = 1.2,
    seed: int = 1,
    horizon: int = 30_000,
    target_insts: int = 200_000,
    version: int = STORE_VERSION,
    apps=("lbm", "mcf", "gcc", "povray"),
    wall_clock: float = 1.5,
):
    """A store entry document shaped exactly like ``ResultStore.put`` writes."""
    return {
        "version": version,
        "key": key,
        "spec": {
            "mix": mix,
            "apps": list(apps),
            "approach": approach,
            "seed": seed,
            "horizon": horizon,
            "target_insts": target_insts,
        },
        "wall_clock": wall_clock,
        "result": {
            "metrics": {
                "mix": mix,
                "approach": approach,
                "apps": list(apps),
                "summary": {
                    "weighted_speedup": ws,
                    "harmonic_speedup": hs,
                    "max_slowdown": ms,
                },
                "slowdowns": {},
            },
            "system": {},
            "alone_ipcs": {},
            "shared_ipcs": {},
        },
    }


def synth_key(n: int) -> str:
    return f"{n:02x}" + f"{n:060x}"[-62:]


def write_blob(root: Path, doc) -> Path:
    path = Path(root) / doc["key"][:2] / f"{doc['key']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def populated_store(root: Path, docs) -> ResultStore:
    for doc in docs:
        write_blob(root, doc)
    return ResultStore(root, index=False)


def index_of(docs) -> ResultIndex:
    """An in-memory index holding the given documents."""
    index = ResultIndex(":memory:")
    for doc in docs:
        index.upsert_doc(doc)
    return index


def c1_grid(dbp_wins: bool = True):
    """Two mixes of a C1 campaign; ``dbp_wins=False`` breaks the approach."""
    ws_boost = 1.08 if dbp_wins else 0.95
    ms_cut = 0.85 if dbp_wins else 1.10
    docs = []
    n = 0
    for mix, ws, ms in (("M4", 3.1, 1.6), ("M7", 3.7, 1.4)):
        docs.append(
            fake_doc(synth_key(n), mix=mix, approach="ebp", ws=ws, ms=ms)
        )
        docs.append(
            fake_doc(
                synth_key(n + 1),
                mix=mix,
                approach="dbp",
                ws=ws * ws_boost,
                ms=ms * ms_cut,
            )
        )
        n += 2
    return docs


# ---------------------------------------------------------------------------
# row_from_doc
# ---------------------------------------------------------------------------
class TestRowFromDoc:
    def test_extracts_spec_metrics_and_registry_annotations(self):
        doc = fake_doc(synth_key(1), approach="dbp-tcm", ws=2.5)
        row = row_from_doc(doc, mtime=123.0, source="sync")
        assert row["key"] == synth_key(1)
        assert row["version"] == STORE_VERSION
        assert row["mix"] == "M4"
        assert row["approach"] == "dbp-tcm"
        assert row["ws"] == 2.5
        assert row["seed"] == 1
        assert row["num_cores"] == 4
        assert row["mtime"] == 123.0
        assert row["source"] == "sync"
        # Registry annotations: dbp-tcm resolves to its policy/scheduler,
        # and M4 is a registered mix with a category.
        assert row["policy"] == "dbp"
        assert row["scheduler"] == "tcm"
        assert row["category"]

    def test_unknown_approach_still_indexes_with_null_annotations(self):
        doc = fake_doc(synth_key(2), approach="from-the-future")
        row = row_from_doc(doc)
        assert row["approach"] == "from-the-future"
        assert row["policy"] is None
        assert row["scheduler"] is None

    def test_mix_falls_back_to_app_join(self):
        doc = fake_doc(synth_key(3))
        del doc["spec"]["mix"]
        doc["result"]["metrics"]["mix"] = None
        row = row_from_doc(doc)
        assert row["mix"] == "lbm+mcf+gcc+povray"

    def test_malformed_documents_raise(self):
        missing_result = fake_doc(synth_key(4))
        del missing_result["result"]
        with pytest.raises(KeyError):
            row_from_doc(missing_result)
        no_approach = fake_doc(synth_key(5))
        no_approach["spec"]["approach"] = None
        no_approach["result"]["metrics"]["approach"] = None
        with pytest.raises(ValueError):
            row_from_doc(no_approach)
        bad_spec = fake_doc(synth_key(6))
        bad_spec["spec"] = "not-a-dict"
        with pytest.raises(TypeError):
            row_from_doc(bad_spec)
        with pytest.raises(ValueError):
            row_from_doc({"key": "", "version": 2})


# ---------------------------------------------------------------------------
# Index sync.
# ---------------------------------------------------------------------------
class TestIndexSync:
    def test_initial_sync_adds_every_entry(self, tmp_path):
        store = populated_store(tmp_path, c1_grid())
        with ResultIndex(index_path_for(tmp_path)) as index:
            report = index.sync(store)
            assert report.scanned == 4
            assert report.added == 4
            assert report.unchanged == 0
            assert index.count() == 4
            assert index.approaches() == ["dbp", "ebp"]
            assert index.mixes() == ["M4", "M7"]

    def test_resync_of_unchanged_store_touches_nothing(self, tmp_path):
        store = populated_store(tmp_path, c1_grid())
        with ResultIndex(index_path_for(tmp_path)) as index:
            index.sync(store)
            report = index.sync(store)
            assert report.added == 0
            assert report.updated == 0
            assert report.removed == 0
            assert report.unchanged == 4
            assert report.changed == 0
            assert index.count() == 4

    def test_rewritten_blob_is_updated_once(self, tmp_path):
        docs = c1_grid()
        store = populated_store(tmp_path, docs)
        with ResultIndex(index_path_for(tmp_path)) as index:
            index.sync(store)
            changed = dict(docs[0])
            changed["result"] = json.loads(json.dumps(docs[0]["result"]))
            changed["result"]["metrics"]["summary"]["weighted_speedup"] = 9.9
            path = write_blob(tmp_path, changed)
            os.utime(path, (path.stat().st_atime, path.stat().st_mtime + 5))
            report = index.sync(store)
            assert report.updated == 1
            assert report.unchanged == 3
            row = [
                r for r in index.rows() if r["key"] == changed["key"]
            ][0]
            assert row["ws"] == 9.9

    def test_prune_removes_rows_for_deleted_blobs(self, tmp_path):
        docs = c1_grid()
        store = populated_store(tmp_path, docs)
        with ResultIndex(index_path_for(tmp_path)) as index:
            index.sync(store)
            victim = store.path_for(docs[0]["key"])
            victim.unlink()
            no_prune = index.sync(store, prune=False)
            assert no_prune.removed == 0
            assert index.count() == 4
            pruned = index.sync(store)
            assert pruned.removed == 1
            assert index.count() == 3

    def test_malformed_blobs_are_counted_and_skipped(self, tmp_path):
        store = populated_store(tmp_path, c1_grid()[:2])
        bad = tmp_path / "zz" / f"{'zz' + '9' * 62}.json"
        bad.parent.mkdir(parents=True)
        bad.write_text("{ not json")
        lying = fake_doc(synth_key(40))
        lying["key"] = synth_key(41)  # content disagrees with its path
        write_blob(tmp_path, lying)
        # write_blob placed it under its *claimed* key; move the blob so the
        # path says synth_key(40) but the content says synth_key(41).
        src = tmp_path / synth_key(41)[:2] / f"{synth_key(41)}.json"
        dst = tmp_path / synth_key(40)[:2] / f"{synth_key(40)}.json"
        dst.parent.mkdir(parents=True, exist_ok=True)
        src.replace(dst)
        with ResultIndex(index_path_for(tmp_path)) as index:
            report = index.sync(store)
            assert report.added == 2
            assert report.malformed == 2
            assert len(report.malformed_paths) == 2
            assert index.count() == 2
            assert "malformed" in report.render()

    def test_stale_versions_index_but_hide_by_default(self, tmp_path):
        docs = c1_grid()[:2]
        docs.append(
            fake_doc(synth_key(50), approach="dbp", version=STORE_VERSION - 1)
        )
        store = populated_store(tmp_path, docs)
        with ResultIndex(index_path_for(tmp_path)) as index:
            report = index.sync(store)
            assert report.stale == 1
            assert index.count() == 3
            assert len(index.rows()) == 2
            assert len(index.rows(current_version_only=False)) == 3
            assert len(index.rows(version=STORE_VERSION - 1)) == 1
            assert index.version_counts() == {
                STORE_VERSION: 2, STORE_VERSION - 1: 1,
            }

    def test_row_filters(self, tmp_path):
        index = index_of(c1_grid())
        assert len(index.rows(mix="M4")) == 2
        assert len(index.rows(approach="dbp")) == 2
        assert len(index.rows(mix="M4", approach="dbp")) == 1
        assert len(index.rows(seed=1)) == 4
        assert len(index.rows(seed=7)) == 0
        assert len(index.rows(horizon=30_000)) == 4
        row = index.rows(mix="M4", approach="dbp")[0]
        assert row["apps"] == ["lbm", "mcf", "gcc", "povray"]
        index.close()

    def test_upsert_is_idempotent_by_key(self):
        index = ResultIndex(":memory:")
        doc = fake_doc(synth_key(60))
        index.upsert_doc(doc)
        index.upsert_doc(doc)
        assert index.count() == 1
        index.close()

    def test_schema_version_bump_drops_and_rebuilds(self, tmp_path):
        db = tmp_path / "index.sqlite"
        with ResultIndex(db) as index:
            index.upsert_doc(fake_doc(synth_key(61)))
            assert index.count() == 1
        conn = sqlite3.connect(db)
        conn.execute("UPDATE meta SET value='999' WHERE name='schema_version'")
        conn.commit()
        conn.close()
        with ResultIndex(db) as index:
            assert index.count() == 0  # rebuilt; blobs would repopulate it

    def test_open_index_on_directory_and_missing_path(self, tmp_path):
        populated_store(tmp_path, c1_grid())
        with open_index(tmp_path, sync=True) as index:
            assert index.count() == 4
        with pytest.raises(ResultsError):
            open_index(tmp_path / "nope.sqlite")


# ---------------------------------------------------------------------------
# The store's put-time index hook.
# ---------------------------------------------------------------------------
class TestPutTimeIndexHook:
    def test_put_indexes_and_sync_confirms_freshness(
        self, tmp_path, fast_runner
    ):
        store = ResultStore(tmp_path / "store")
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        key = "ab" + "0" * 62
        store.put(
            key, result, wall_clock=2.0,
            describe={
                "mix": "TEST", "apps": ["lbm", "gcc"],
                "approach": "shared-frfcfs", "seed": 1,
                "horizon": 30_000, "target_insts": 200_000,
            },
        )
        assert store.stats.index_errors == 0
        assert store.index_path().is_file()
        with ResultIndex(store.index_path()) as index:
            rows = index.rows()
            assert len(rows) == 1
            assert rows[0]["key"] == key
            assert rows[0]["source"] == "put"
            # The hook recorded the blob's mtime, so a sync pass finds
            # nothing to do: put-time indexing and sync agree.
            report = index.sync(ResultStore(store.root, index=False))
            assert report.added == 0
            assert report.unchanged == 1

    def test_index_false_store_never_creates_index(
        self, tmp_path, fast_runner
    ):
        store = ResultStore(tmp_path / "store", index=False)
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        store.put("ab" + "1" * 62, result, wall_clock=1.0)
        assert not store.index_path().exists()

    def test_index_failure_never_fails_the_put(self, tmp_path, fast_runner):
        root = tmp_path / "store"
        root.mkdir()
        # A directory where the index file should be: sqlite cannot open it.
        store = ResultStore(root)
        store.index_path().mkdir()
        result = fast_runner.run_apps(["lbm", "gcc"], "shared-frfcfs")
        key = "ab" + "2" * 62
        path = store.put(key, result, wall_clock=1.0)
        assert path.is_file()
        assert store.stats.writes == 1
        assert store.stats.index_errors == 1
        assert store.get(key) is not None


# ---------------------------------------------------------------------------
# Views.
# ---------------------------------------------------------------------------
class TestViews:
    def test_geomean_and_gain_conventions(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ResultsError):
            geomean([])
        with pytest.raises(ResultsError):
            geomean([1.0, 0.0])
        # WS/HS: percent increase is good; MS: percent reduction is good.
        assert gain_pct(1.1, 1.0, metric="ws") == pytest.approx(10.0)
        assert gain_pct(0.9, 1.0, metric="ms") == pytest.approx(10.0)
        assert gain_pct(1.1, 1.0, metric="ms") == pytest.approx(-10.0)
        with pytest.raises(ResultsError):
            gain_pct(1.0, 0.0, metric="ws")

    def test_pair_deltas_match_on_cell_identity(self):
        docs = c1_grid()
        # An ebp run at another seed has no dbp partner: unmatched.
        docs.append(
            fake_doc(synth_key(70), mix="M4", approach="ebp", seed=2)
        )
        index = index_of(docs)
        deltas = pair_deltas(index, "dbp", "ebp")
        assert deltas.matched == 2
        assert deltas.unmatched == {"ebp": 1}
        cell = [c for c in deltas.cells if c["mix"] == "M4"][0]
        assert cell["ws_dbp"] == pytest.approx(3.1 * 1.08)
        assert cell["ws_gain_pct"] == pytest.approx(8.0)
        assert cell["ms_gain_pct"] == pytest.approx(15.0)
        # Uniform per-cell ratios make the geomean summary exact.
        assert deltas.summary_gain("ws") == pytest.approx(8.0)
        assert deltas.summary_gain("ms") == pytest.approx(15.0)
        assert deltas.per_mix_gains("ws") == {
            "M4": pytest.approx(8.0), "M7": pytest.approx(8.0),
        }
        doc = deltas.as_dict()
        assert doc["matched_cells"] == 2
        assert doc["summary_gains_pct"]["ws"] == pytest.approx(8.0)
        rendered = render_pair_deltas(deltas)
        assert "dbp vs ebp" in rendered
        assert "gmean" in rendered
        index.close()

    def test_pair_needs_two_distinct_approaches(self):
        index = index_of(c1_grid())
        with pytest.raises(ResultsError):
            pair_deltas(index, "dbp", "dbp")
        index.close()

    def test_rollup_aggregates_per_approach(self):
        index = index_of(c1_grid())
        rollup = approach_rollup(index)
        assert set(rollup) == {"dbp", "ebp"}
        ebp = rollup["ebp"]
        assert ebp["runs"] == 2
        assert ebp["mixes"] == ["M4", "M7"]
        assert ebp["ws"]["min"] == pytest.approx(3.1)
        assert ebp["ws"]["max"] == pytest.approx(3.7)
        assert ebp["ws"]["mean"] == pytest.approx(3.4)
        assert ebp["ws"]["geomean"] == pytest.approx(geomean([3.1, 3.7]))
        index.close()

    def test_intensity_breakdown_groups_by_category(self):
        docs = c1_grid()
        docs.append(
            fake_doc(synth_key(71), mix="adhoc", approach="dbp", ws=2.0)
        )
        index = index_of(docs)
        breakdown = intensity_breakdown(index)
        assert "?" in breakdown  # the uncategorized ad-hoc mix
        assert breakdown["?"]["dbp"]["runs"] == 1
        categorized = [c for c in breakdown if c != "?"]
        assert categorized  # M4/M7 carry their registry categories
        index.close()


# ---------------------------------------------------------------------------
# A/B compare.
# ---------------------------------------------------------------------------
class TestCompare:
    def test_identical_sides_are_all_same(self):
        a, b = index_of(c1_grid()), index_of(c1_grid())
        summary = compare_indexes(a, b)
        assert summary.counts == {"same": 4}
        assert all(r["identical_key"] for r in summary.rows)
        assert summary.regressions == []
        a.close(), b.close()

    def test_regressions_and_improvements_flagged(self):
        docs_b = c1_grid()
        # B regressed M4/dbp on WS and improved M7/ebp on MS.
        docs_b[1]["result"]["metrics"]["summary"]["weighted_speedup"] *= 0.9
        docs_b[2]["result"]["metrics"]["summary"]["max_slowdown"] *= 0.8
        a, b = index_of(c1_grid()), index_of(docs_b)
        summary = compare_indexes(a, b, tolerance_pct=0.5)
        assert summary.counts == {"same": 2, "improved": 1, "regressed": 1}
        reg = summary.regressions[0]
        assert (reg["mix"], reg["approach"]) == ("M4", "dbp")
        assert reg["ws_delta_pct"] == pytest.approx(-10.0)
        rendered = render_compare(summary)
        assert "REGRESSION: M4/dbp" in rendered
        doc = summary.as_dict()
        assert len(doc["compare_summary"]) == 4
        a.close(), b.close()

    def test_one_sided_runs_reported(self):
        a = index_of(c1_grid())
        b = index_of(c1_grid()[:2])
        b_extra = fake_doc(synth_key(80), mix="M9", approach="dbp")
        b.upsert_doc(b_extra)
        summary = compare_indexes(a, b)
        assert summary.counts["only_a"] == 2
        assert summary.counts["only_b"] == 1
        a.close(), b.close()

    def test_within_tolerance_is_same(self):
        docs_b = c1_grid()
        docs_b[0]["result"]["metrics"]["summary"]["weighted_speedup"] *= 1.001
        a, b = index_of(c1_grid()), index_of(docs_b)
        summary = compare_indexes(a, b, tolerance_pct=0.5)
        assert summary.counts == {"same": 4}
        a.close(), b.close()


# ---------------------------------------------------------------------------
# Gates.
# ---------------------------------------------------------------------------
def full_claims_grid():
    """Synthetic results satisfying every C1-C3 gate, two mixes."""
    docs = []
    n = 100
    # (approach, ws_factor, ms_factor) against a per-mix base; crafted so
    # C3's gains exceed C1's and C2's (the ordering gates).
    shape = (
        ("ebp", 1.00, 1.00),
        ("dbp", 1.04, 0.90),      # C1: +4% WS, 10% MS cut vs ebp
        ("tcm", 1.06, 0.95),
        ("dbp-tcm", 1.05, 0.80),  # C2: -0.94% WS (floor), 15.8% MS cut
        ("mcp", 0.98, 0.95),      # C3: +7.1% WS, 15.8% MS cut for dbp-tcm
    )
    for mix, ws, ms in (("M4", 3.0, 1.6), ("M7", 3.6, 1.4)):
        for approach, ws_f, ms_f in shape:
            docs.append(
                fake_doc(
                    synth_key(n), mix=mix, approach=approach,
                    ws=ws * ws_f, ms=ms * ms_f,
                )
            )
            n += 1
    return docs


class TestGates:
    def test_full_grid_passes_every_paper_gate(self):
        index = index_of(full_claims_grid())
        report = evaluate_gates(index)
        assert len(report.checks) == len(PAPER_GATES)
        assert report.ok()
        assert report.ok(strict=True)
        assert {c.status for c in report.checks} == {"pass"}
        rendered = report.render()
        assert "gates: PASS" in rendered
        index.close()

    def test_broken_approach_fails_its_gates(self):
        docs = [
            d for d in full_claims_grid()
            if d["spec"]["approach"] in ("ebp", "dbp")
        ]
        for doc in docs:
            if doc["spec"]["approach"] == "dbp":
                summary = doc["result"]["metrics"]["summary"]
                summary["weighted_speedup"] *= 0.9   # now loses to ebp
                summary["max_slowdown"] *= 1.3
        index = index_of(docs)
        report = evaluate_gates(index, claims=["C1"])
        assert not report.ok()
        assert [c.status for c in report.checks] == ["fail", "fail"]
        assert "needs > +0.00%" in report.checks[0].reason
        assert "gates: FAIL" in report.render()
        index.close()

    def test_missing_approaches_skip_not_fail(self):
        index = index_of(c1_grid())  # only ebp/dbp: C2/C3 have no runs
        report = evaluate_gates(index)
        by_name = {c.gate.name: c for c in report.checks}
        assert by_name["c1-throughput"].status == "pass"
        assert by_name["c2-fairness"].status == "skipped"
        assert by_name["c3-over-c1-throughput"].status == "skipped"
        assert report.ok()
        assert not report.ok(strict=True)
        index.close()

    def test_claims_filter(self):
        index = index_of(c1_grid())
        report = evaluate_gates(index, claims=["C1"])
        assert len(report.checks) == 2
        assert {c.gate.claim for c in report.checks} == {"C1"}
        index.close()

    def test_per_mix_scope_catches_a_losing_mix(self):
        docs = c1_grid()
        # Make M7's dbp lose on WS while the overall gmean still wins.
        for doc in docs:
            spec = doc["spec"]
            if spec["approach"] == "dbp" and spec["mix"] == "M7":
                doc["result"]["metrics"]["summary"]["weighted_speedup"] = 3.5
        index = index_of(docs)
        gmean_gate = DeltaGate("g", "C1", "ws", "dbp", "ebp", scope="gmean")
        per_mix_gate = DeltaGate(
            "p", "C1", "ws", "dbp", "ebp", scope="per_mix"
        )
        report = evaluate_gates(index, [gmean_gate, per_mix_gate])
        assert report.checks[0].status == "pass"
        assert report.checks[1].status == "fail"
        assert report.checks[1].observed["worst"]["where"] == "M7"
        index.close()

    def test_per_cell_scope_names_the_worst_cell(self):
        index = index_of(c1_grid())
        gate = DeltaGate("c", "C1", "ms", "dbp", "ebp", scope="per_cell")
        report = evaluate_gates(index, [gate])
        check = report.checks[0]
        assert check.status == "pass"
        assert "s1" in check.observed["worst"]["where"]
        index.close()

    def test_min_gain_floor_allows_bounded_loss(self):
        index = index_of(full_claims_grid())
        floor = DeltaGate(
            "floor", "C2", "ws", "dbp-tcm", "tcm", min_gain_pct=-2.0
        )
        strict_win = DeltaGate("win", "C2", "ws", "dbp-tcm", "tcm")
        report = evaluate_gates(index, [floor, strict_win])
        assert report.checks[0].status == "pass"   # loses ~0.94%, within -2
        assert report.checks[1].status == "fail"   # but it is still a loss
        index.close()

    def test_ordering_gate_detects_violation(self):
        index = index_of(full_claims_grid())
        ok = OrderingGate(
            "o1", "C3", "ws", hi=("dbp-tcm", "mcp"), lo=("dbp", "ebp")
        )
        violated = OrderingGate(
            "o2", "C3", "ws", hi=("dbp", "ebp"), lo=("dbp-tcm", "mcp")
        )
        report = evaluate_gates(index, [ok, violated])
        assert report.checks[0].status == "pass"
        assert report.checks[1].status == "fail"
        assert "ordering violated" in report.checks[1].reason
        index.close()

    def test_invalid_gate_definitions_rejected(self):
        with pytest.raises(ResultsError):
            DeltaGate("x", "C1", "ws", "dbp", "ebp", scope="sometimes")
        with pytest.raises(ResultsError):
            DeltaGate("x", "C1", "ipc", "dbp", "ebp")
        with pytest.raises(ResultsError):
            OrderingGate("x", "C1", "ipc", hi=("a", "b"), lo=("c", "d"))

    def test_gate_json_round_trip(self, tmp_path):
        for gate in PAPER_GATES:
            assert gate_from_dict(gate_to_dict(gate)) == gate
        path = tmp_path / "gates.json"
        path.write_text(
            json.dumps({"gates": [gate_to_dict(g) for g in PAPER_GATES]})
        )
        loaded = load_gates_file(path)
        assert tuple(loaded) == PAPER_GATES
        # A bare list works too.
        path.write_text(json.dumps([gate_to_dict(PAPER_GATES[0])]))
        assert load_gates_file(path) == [PAPER_GATES[0]]
        with pytest.raises(ResultsError):
            gate_from_dict({"kind": "vibes", "name": "x"})
        with pytest.raises(ResultsError):
            gate_from_dict({"kind": "delta", "name": "x"})
        path.write_text("{}")
        with pytest.raises(ResultsError):
            load_gates_file(path)
        with pytest.raises(ResultsError):
            load_gates_file(tmp_path / "missing.json")

    def test_report_as_dict_is_machine_readable(self):
        index = index_of(c1_grid())
        doc = evaluate_gates(index, claims=["C1"]).as_dict()
        assert doc["passed"] is True
        assert doc["counts"] == {"pass": 2, "fail": 0, "skipped": 0}
        assert doc["checks"][0]["gate"]["name"] == "c1-throughput"
        assert "gain_pct" in doc["checks"][0]["observed"]
        index.close()


# ---------------------------------------------------------------------------
# Concurrency: two processes writing/indexing one store.
# ---------------------------------------------------------------------------
_WRITER_SCRIPT = """
import json, sys
sys.path.insert(0, "src")
from repro.results import ResultIndex
from repro.campaign.store import STORE_VERSION

db, start, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with ResultIndex(db) as index:
    for n in range(start, start + count):
        key = f"{n:064x}"
        index.upsert(
            {
                "key": key,
                "version": STORE_VERSION,
                "mix": f"MIX{n % 7}",
                "approach": "dbp" if n % 2 else "ebp",
                "policy": None,
                "scheduler": None,
                "apps": json.dumps(["a", "b"]),
                "seed": 1,
                "horizon": 30000,
                "target_insts": 200000,
                "num_cores": 2,
                "intensive_count": None,
                "category": None,
                "ws": 2.0 + n / 1000.0,
                "hs": 0.8,
                "ms": 1.2,
                "wall_clock": 0.1,
                "trace_digests": None,
                "mtime": float(n),
                "source": "put",
            }
        )
print("done", start)
"""


def _index_when_released(root, doc, path, barrier, errors):
    """Child body: run the store's put-time index hook the moment every
    sibling is ready, so all of them create ``index.sqlite`` at once."""
    store = ResultStore(root)
    barrier.wait(timeout=60)
    store._index_put(doc, path)
    errors.put(store.stats.index_errors)


class TestConcurrentWriters:
    def test_processes_racing_to_create_the_index_lose_no_row(self, tmp_path):
        """N fresh handles create the index file at the same instant.

        Switching a new file to WAL does not wait on SQLite's busy handler,
        so a loser of that race used to see ``database is locked`` — which
        the put-time hook swallows as an ``index_error``, dropping the row
        until the next sync.
        """
        writers = 8
        for round_no in range(5):
            root = tmp_path / f"store-{round_no}"
            docs = [
                fake_doc(synth_key(round_no * writers + n))
                for n in range(writers)
            ]
            barrier = multiprocessing.Barrier(writers)
            errors = multiprocessing.Queue()
            procs = [
                multiprocessing.Process(
                    target=_index_when_released,
                    args=(root, doc, write_blob(root, doc), barrier, errors),
                )
                for doc in docs
            ]
            for proc in procs:
                proc.start()
            index_errors = [errors.get(timeout=60) for _ in procs]
            for proc in procs:
                proc.join(timeout=60)
                assert proc.exitcode == 0
            assert index_errors == [0] * writers
            with ResultIndex(index_path_for(root)) as index:
                assert sorted(r["key"] for r in index.rows()) == sorted(
                    doc["key"] for doc in docs
                )

    def test_opening_waits_out_a_writer_instead_of_failing(self, tmp_path):
        """The same race, made deterministic: a writer holds the file (still
        in rollback-journal mode) while a second handle opens it."""
        db = tmp_path / "index.sqlite"
        writer = sqlite3.connect(db, check_same_thread=False)
        writer.execute("CREATE TABLE other (x)")
        writer.commit()
        writer.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, writer.rollback)
        release.start()
        try:
            with ResultIndex(db) as index:
                index.upsert_doc(fake_doc(synth_key(1)))
                assert index.count() == 1
        finally:
            release.join()
            writer.close()

    def test_two_processes_share_one_index_without_lost_rows(self, tmp_path):
        """Two writers upsert overlapping key ranges concurrently.

        Keys 0..119 and 80..199 overlap on 80..119: the index must end up
        with exactly 200 rows — nothing lost to lock contention, nothing
        duplicated by the overlap.
        """
        db = tmp_path / "index.sqlite"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(db), start, "120"],
                cwd=REPO_ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for start in ("0", "80")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out
        with ResultIndex(db) as index:
            assert index.count() == 200
            keys = [r["key"] for r in index.rows()]
            assert len(keys) == len(set(keys)) == 200

    def test_two_processes_sync_one_store_concurrently(self, tmp_path):
        """Two full sync passes over one store race without corruption."""
        populated_store(tmp_path, c1_grid())
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.campaign import ResultStore\n"
            "from repro.results import ResultIndex, index_path_for\n"
            f"root = {str(tmp_path)!r}\n"
            "with ResultIndex(index_path_for(root)) as index:\n"
            "    index.sync(ResultStore(root, index=False))\n"
            "print('synced')\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                cwd=REPO_ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        with ResultIndex(index_path_for(tmp_path)) as index:
            assert index.count() == 4


# ---------------------------------------------------------------------------
# CLI verbs.
# ---------------------------------------------------------------------------
class TestResultsCLI:
    @pytest.fixture
    def store_dir(self, tmp_path):
        populated_store(tmp_path / "store", full_claims_grid())
        return tmp_path / "store"

    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_index_builds_then_reports_idempotent(self, store_dir, capsys):
        assert self.run_cli(["results", "index", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "10 added" in out
        assert self.run_cli(["results", "index", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 added" in out
        assert "10 unchanged" in out

    def test_query_views(self, store_dir, capsys):
        base = ["results", "query", "--store", str(store_dir)]
        assert self.run_cli(base + ["--approach", "dbp"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert self.run_cli(base + ["--view", "rollup", "--format", "json"]) == 0
        rollup = json.loads(capsys.readouterr().out)
        assert rollup["dbp"]["runs"] == 2
        assert (
            self.run_cli(
                base + ["--view", "deltas", "--pair", "dbp", "ebp"]
            )
            == 0
        )
        assert "dbp vs ebp" in capsys.readouterr().out
        assert self.run_cli(base + ["--view", "intensity"]) == 0
        capsys.readouterr()

    def test_query_deltas_requires_pair(self, store_dir, capsys):
        code = self.run_cli(
            [
                "results", "query", "--store", str(store_dir),
                "--view", "deltas",
            ]
        )
        assert code != 0
        assert "--pair" in capsys.readouterr().err

    def test_gates_pass_and_write_report(self, store_dir, tmp_path, capsys):
        out_path = tmp_path / "gates.json"
        code = self.run_cli(
            [
                "results", "gates", "--store", str(store_dir),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "gates: PASS" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        assert doc["counts"]["fail"] == 0

    def test_gates_fail_on_broken_approach(self, tmp_path, capsys):
        """The regression demo: a broken dbp makes `results gates` exit 1."""
        docs = full_claims_grid()
        for doc in docs:
            if doc["spec"]["approach"] == "dbp":
                summary = doc["result"]["metrics"]["summary"]
                summary["weighted_speedup"] *= 0.85
                summary["max_slowdown"] *= 1.4
        populated_store(tmp_path / "broken", docs)
        code = self.run_cli(
            [
                "results", "gates", "--store", str(tmp_path / "broken"),
                "--claims", "C1",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "gates: FAIL" in out
        assert "FAIL" in out

    def test_gates_strict_fails_on_skips(self, tmp_path, capsys):
        populated_store(tmp_path / "store", c1_grid())
        base = ["results", "gates", "--store", str(tmp_path / "store")]
        assert self.run_cli(base) == 0
        capsys.readouterr()
        assert self.run_cli(base + ["--strict"]) == 1
        capsys.readouterr()

    def test_gates_file(self, store_dir, tmp_path, capsys):
        gates_path = tmp_path / "custom.json"
        gates_path.write_text(
            json.dumps(
                [
                    {
                        "kind": "delta", "name": "custom-win", "claim": "C9",
                        "metric": "ws", "better": "tcm", "baseline": "ebp",
                    }
                ]
            )
        )
        code = self.run_cli(
            [
                "results", "gates", "--store", str(store_dir),
                "--gates-file", str(gates_path), "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["gate"]["name"] == "custom-win"

    def test_compare_detects_regression_exit_code(
        self, store_dir, tmp_path, capsys
    ):
        docs = full_claims_grid()
        for doc in docs:
            if doc["spec"]["approach"] == "dbp":
                doc["result"]["metrics"]["summary"]["weighted_speedup"] *= 0.9
        populated_store(tmp_path / "b", docs)
        argv = [
            "results", "compare", str(store_dir), str(tmp_path / "b"),
            "--fail-on-regression",
        ]
        assert self.run_cli(argv) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # Identical sides: exit 0.
        assert (
            self.run_cli(
                [
                    "results", "compare", str(store_dir), str(store_dir),
                    "--fail-on-regression",
                ]
            )
            == 0
        )
        capsys.readouterr()


    def test_compare_takes_store_directories(self, store_dir, capsys):
        from repro.results import index_path_for

        index_file = index_path_for(store_dir)
        self.run_cli(["results", "index", "--store", str(store_dir)])
        assert index_file.is_file()
        argv = ["results", "compare", str(index_file), str(store_dir)]
        assert self.run_cli(argv) == 1
        assert "no store directory at" in capsys.readouterr().err


class TestCampaignGatesCLI:
    def test_campaign_gates_fail_on_deliberately_broken_approach(
        self, monkeypatch, capsys
    ):
        """`campaign --gates` exits non-zero when dbp is sabotaged.

        The broken "dbp" resolves to ebp's policy/scheduler, so its metrics
        tie ebp's exactly — a strict-win gate must fail on a tie, which
        makes the demo deterministic at any horizon.
        """
        from repro.cli import main
        from repro.core.integration import APPROACHES, Approach

        monkeypatch.setitem(
            APPROACHES, "dbp", Approach("dbp", "ebp", "frfcfs")
        )
        argv = [
            "--horizon", "20000", "campaign", "--mixes", "D2",
            "--approaches", "ebp", "dbp", "--jobs", "1", "--no-store",
            "--quiet", "--gates", "--gates-claims", "C1",
        ]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "Acceptance gates:" in out
        assert "gates: FAIL" in out

    def test_campaign_gates_json_document_carries_checks(
        self, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.core.integration import APPROACHES, Approach

        monkeypatch.setitem(
            APPROACHES, "dbp", Approach("dbp", "ebp", "frfcfs")
        )
        argv = [
            "--horizon", "20000", "campaign", "--mixes", "D2",
            "--approaches", "ebp", "dbp", "--jobs", "1", "--no-store",
            "--quiet", "--gates", "--gates-claims", "C1",
            "--format", "json",
        ]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["gates"]["passed"] is False
        assert doc["gates"]["counts"]["fail"] == 2


class TestStoreCLI:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_stats_reports_entries_and_index(self, tmp_path, capsys):
        root = tmp_path / "store"
        populated_store(root, c1_grid())
        assert self.run_cli(["results", "index", "--store", str(root)]) == 0
        capsys.readouterr()
        assert (
            self.run_cli(
                ["results", "stats", "--store", str(root), "--format", "json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 4
        assert doc["index_exists"] is True
        assert doc["index_rows"] == 4
        assert doc["index_version_counts"] == {str(STORE_VERSION): 4}

    def test_ls_lists_entries_and_quarantine(self, tmp_path, capsys):
        root = tmp_path / "store"
        populated_store(root, c1_grid())
        bad = root / "aa" / ("aa" + "5" * 62 + ".json.corrupt")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("junk")
        assert self.run_cli(["results", "ls", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "dbp" in out
        assert (
            self.run_cli(["results", "ls", "--store", str(root), "--corrupt"])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 quarantined file(s)" in out
        assert ".corrupt" in out

    def test_gc_purges_quarantine_tmp_and_stale(self, tmp_path, capsys):
        root = tmp_path / "store"
        docs = c1_grid()
        docs.append(
            fake_doc(synth_key(90), approach="dbp", version=STORE_VERSION - 1)
        )
        populated_store(root, docs)
        (root / "aa").mkdir(exist_ok=True)
        (root / "aa" / ("aa" + "6" * 62 + ".json.corrupt")).write_text("x")
        (root / "aa" / ("aa" + "7" * 62 + ".json.tmp.1234")).write_text("x")
        argv = ["results", "gc", "--store", str(root), "--stale"]
        assert self.run_cli(argv + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would delete" in out
        assert "1 quarantined, 1 tmp, 1 stale" in out
        store = ResultStore(root, index=False)
        assert store.entry_count() == 5  # dry run deleted nothing
        assert self.run_cli(argv) == 0
        capsys.readouterr()
        assert store.entry_count() == 4
        assert store.quarantined_paths() == []
        assert store.orphaned_tmp_paths() == []
        assert store.stale_paths() == []

    def test_gc_collects_a_killed_study_writers_tmp(self, tmp_path, capsys):
        from repro.tuner import study_path

        root = tmp_path / "store"
        populated_store(root, c1_grid())
        tmp = study_path(root, "s").with_name("study.json.tmp.1234")
        tmp.parent.mkdir(parents=True)
        tmp.write_text("{half")
        assert self.run_cli(["results", "gc", "--store", str(root)]) == 0
        assert "1 tmp" in capsys.readouterr().out
        assert not tmp.exists()
        assert ResultStore(root, index=False).entry_count() == 4

    def test_alone_records_counted_collected_and_unseen_by_results(
        self, tmp_path, capsys
    ):
        root = tmp_path / "store"
        populated_store(root, c1_grid())
        index_argv = ["results", "index", "--store", str(root)]
        assert self.run_cli(index_argv) == 0
        assert "index rows: 4" in capsys.readouterr().out
        store = ResultStore(root, index=False)
        for n in (1, 2):
            store.put_alone(synth_key(n), 1.5, {"app": f"app{n}"})
        stale = store.alone_path_for(synth_key(3))
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(
            json.dumps(
                {"version": STORE_VERSION - 1, "key": synth_key(3), "ipc": 1.0}
            )
        )
        stale.with_name(stale.name + ".tmp.1234").write_text("x")
        # The sidecar is invisible to everything that reads run results...
        assert store.entry_count() == 4
        assert len(list(store.iter_blobs())) == 4
        assert self.run_cli(index_argv) == 0
        out = capsys.readouterr().out
        assert "0 added" in out and "index rows: 4" in out
        # ...and visible to the maintenance verbs.
        stats_argv = ["results", "stats", "--store", str(root)]
        assert self.run_cli(stats_argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alone_records"] == 3 and doc["alone_bytes"] > 0
        assert doc["entries"] == 4 and doc["tmp_files"] == 1
        assert self.run_cli(stats_argv) == 0
        assert "alone:       3 record(s)" in capsys.readouterr().out
        gc_argv = ["results", "gc", "--store", str(root), "--stale"]
        assert self.run_cli(gc_argv + ["--dry-run"]) == 0
        assert "0 quarantined, 1 tmp, 1 stale" in capsys.readouterr().out
        assert self.run_cli(gc_argv) == 0
        capsys.readouterr()
        assert [p.stem for p in store.alone_paths()] == sorted(
            synth_key(n) for n in (1, 2)
        )
        assert store.orphaned_tmp_paths() == []
        assert store.entry_count() == 4
