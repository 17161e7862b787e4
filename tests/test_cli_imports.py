"""The CLI import boundary: a command loads what it uses.

Each case runs in a fresh interpreter (``sys.modules`` is only meaningful
there) and reports the ``repro.*`` modules the command left loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
modules = sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("repro", "multiprocessing")
)
print(json.dumps({"code": code, "modules": modules}), file=sys.stderr)
"""

#: The simulator proper: no store reader or fully cached re-run needs it.
SIMULATOR = {
    "repro.sim.system",
    "repro.sim.engine",
    "repro.sim.runner",
    "repro.memctrl.controller",
    "repro.dram.channel",
    "repro.dram.bank",
    "repro.cpu.core",
    "repro.cache.cache",
    "repro.workloads.synthetic",
    "repro.experiments.catalog",
}
#: Packages the store readers additionally never touch.
POLICY_LAYERS = ("repro.memctrl", "repro.osmm", "repro.baselines")


def run_probe(*argv):
    """(exit code, loaded repro/multiprocessing modules, stdout) of
    ``repro-dbp argv``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr.strip(), proc
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    return report["code"], set(report["modules"]), proc.stdout


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    """A small store holding a finished campaign and a finished study."""
    store = str(tmp_path_factory.mktemp("served") / "store")
    assert main(campaign_argv(store)) == 0
    assert main(tune_argv(store)) == 0
    return store


def campaign_argv(store):
    return [
        "--horizon", "20000", "campaign", "--mixes", "M4",
        "--approaches", "ebp", "dbp", "--jobs", "2",
        "--store", store, "--quiet", "--format", "json",
    ]


def tune_argv(store):
    return [
        "--horizon", "20000", "tune", "run", "--strategy", "random",
        "--budget", "3", "--mixes", "M4", "--jobs", "2",
        "--store", store, "--quiet", "--format", "json",
    ]


def in_layers(modules):
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in POLICY_LAYERS)
    )


class TestReadersSkipTheSimulator:
    def test_cached_campaign(self, served_store):
        code, modules, out = run_probe(*campaign_argv(served_store))
        assert code == 0
        assert json.loads(out)["summary"]["cache_hit_rate"] == 1.0
        assert not modules & SIMULATOR
        assert "multiprocessing" not in modules

    def test_cached_tune_run(self, served_store):
        code, modules, out = run_probe(*tune_argv(served_store))
        assert code == 0
        assert json.loads(out)["cache_hit_rate"] == 1.0
        assert not modules & SIMULATOR

    @pytest.mark.parametrize(
        "verb",
        [
            ("results", "index"),
            ("results", "query", "--view", "deltas", "--pair", "dbp", "ebp"),
            ("results", "gates"),
            ("results", "stats"),
            ("results", "ls"),
            ("tune", "report"),
            ("tune", "frontier"),
        ],
        ids=" ".join,
    )
    def test_results_and_store_verbs(self, served_store, verb):
        code, modules, out = run_probe(*verb, "--store", served_store)
        assert code in ((0, 1) if verb[1] == "gates" else (0,))
        assert out.strip()
        assert not modules & SIMULATOR
        assert in_layers(modules) == []

    def test_explain_from_log(self, tmp_path):
        log = tmp_path / "epochs.json"
        assert main(
            [
                "--horizon", "30000", "explain", "M4", "dbp-tcm",
                "--show", "decisions", "--log", str(log),
            ]
        ) == 0
        code, modules, out = run_probe("explain", "--from-log", str(log))
        assert code == 0
        assert "Policy decisions:" in out
        assert not modules & SIMULATOR
        assert in_layers(modules) == []

    def test_uncached_campaign_still_loads_it(self, tmp_path):
        """The probe is not vacuous: real work does import the simulator."""
        code, modules, _out = run_probe(
            *campaign_argv(str(tmp_path / "fresh"))
        )
        assert code == 0
        assert {"repro.sim.runner", "multiprocessing"} <= modules


def test_bare_cli_import_is_small():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import repro.cli, sys; print(*sorted(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')))",
        ],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert len(out) <= 20, out
    packages = {name.split(".")[1] for name in out if "." in name}
    assert packages <= {"_lazy", "cli", "commands", "errors", "workloads"}
