"""Self-test of the benchmark harness (not part of tier-1).

Run explicitly, from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Everything runs in ``--smoke`` mode (2 rounds, horizon 50 000): the tests
check that the harness measures what ``BENCHMARK.json`` says it measures
and fails when it should, not how fast the program is.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import ledger
import run
import workloads
from harness import HERE, OUT, ROOT
from ledger import Ledger, Span

DECL = run.declaration()
NAMES = [w["name"] for w in DECL["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(name: str, trace: int, capsys) -> tuple:
    """(exit code, result object) of one in-process smoke run."""
    capsys.readouterr()
    code = run.main(["--workload", name, "--smoke", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert captured.out.strip(), f"no result printed: {captured.err}"
    return code, json.loads(captured.out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    """{(workload, trace): result} — every workload, both passes, once.

    Fresh processes, started the way the driver starts them.
    """
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--smoke", "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            results[name, trace] = json.loads(
                proc.stdout.strip().splitlines()[-1]
            )
    return results


# ---------------------------------------------------------------------------
def test_declaration_names_the_contracted_benchmark():
    assert DECL["paths"] == ["benchmarks/e2e"]
    assert DECL["run_seconds"] == run.RUN_SECONDS
    assert NAMES == ["cold_cell", "campaign_grid", "kernel_shared",
                     "warm_serve"]
    assert NAMES == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m for m in DECL["end_to_end"]}
    assert set(end_to_end) == set(run.E2E_UNITS)
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in DECL["end_to_end"]
    )
    for metric in DECL["end_to_end"] + DECL["per_layer"]:
        assert NAME_RE.fullmatch(metric["name"]), metric["name"]
    assert all(0 < m["bound"] <= 0.25 for m in DECL["end_to_end"])
    assert set(ledger.EXACT_LAYERS) <= set(ledger.LAYER_UNITS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_declared_metrics_are_the_emitted_metrics(
    smoke_runs, name, trace, section
):
    declared = {m["name"]: m["unit"] for m in DECL[section]}
    result = smoke_runs[name, trace]
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_perfetto_file_loads_and_spans_nest(smoke_runs, name):
    from repro.telemetry.spans import load_trace_file

    assert (name, 1) in smoke_runs
    document = load_trace_file(str(OUT / f"{name}.perfetto.json"))
    spans = {
        e["args"]["id"]: e
        for e in document["traceEvents"]
        if e.get("ph") == "X" and "id" in e.get("args", {})
    }
    assert spans
    roots = [e for e in spans.values() if e["args"]["parent"] is None]
    assert [e["name"] for e in roots if e["name"].startswith("op:")] == [
        f"op:{name}"
    ]
    assert all(e["name"].startswith(("op:", "probe:")) for e in roots)
    for event in spans.values():
        parent = spans.get(event["args"]["parent"])
        if parent is None:
            continue
        assert parent["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]


def test_coverage_is_the_sum_of_self_times():
    ledger = Ledger("synthetic")
    # root 100 us; A 60 us holding B 20 us; C 30 us; 10 us of root glue.
    for span in (
        Span(0, None, "op:x", 0, 100),
        Span(1, 0, "a", 0, 60),
        Span(2, 1, "b", 10, 20),
        Span(3, 0, "c", 65, 30),
    ):
        ledger.spans.append(span)
    root, a, b, c = ledger.spans
    assert ledger.self_seconds(a) == pytest.approx(40e-6)
    assert ledger.self_seconds(b) == pytest.approx(20e-6)
    assert ledger.self_seconds(root) == pytest.approx(10e-6)
    # 40 + 20 + 30 of the 100 us reference: the root's own glue is left out.
    assert ledger.coverage(root, 100e-6) == pytest.approx(0.90)
    assert ledger.nesting_errors() == []
    ledger.spans.append(Span(4, 3, "sticks-out", 90, 20))
    assert ledger.nesting_errors() == ["sticks-out#4 outside c"]


def test_cold_cell_ledger_explains_its_op(smoke_runs):
    coverage = smoke_runs["cold_cell", 1]["metrics"]["ledger.coverage"]
    # The acceptance band (0.90-1.10) is for the full horizon; at the smoke
    # horizon interpreter exit weighs more, so only a gross hole fails here.
    assert 0.75 <= coverage["value"] <= 1.15


def test_a_corrupted_digest_fails_the_round_and_the_command(
    monkeypatch, capsys
):
    genuine = workloads.ColdCell.setup

    def setup_then_corrupt(self):
        genuine(self)
        key = next(iter(self.reference["digests"]))
        self.reference["digests"][key] = "0" * 64

    monkeypatch.setattr(workloads.ColdCell, "setup", setup_then_corrupt)
    code, result = smoke("cold_cell", 0, capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_exact_metrics_repeat_across_runs(smoke_runs, capsys):
    for name in NAMES:
        code, again = smoke(name, 1, capsys)
        assert code == 0
        first = smoke_runs[name, 1]["metrics"]
        for metric in ledger.EXACT_LAYERS:
            assert again["metrics"][metric] == first[metric], (name, metric)
    code, again = smoke("kernel_shared", 0, capsys)
    assert code == 0
    for metric in run.SIMULATED:
        assert (
            again["metrics"][metric]
            == smoke_runs["kernel_shared", 0]["metrics"][metric]
        )


def test_a_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
