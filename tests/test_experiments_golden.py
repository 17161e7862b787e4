"""Golden pin for every experiment in the catalog.

Each experiment runs at a tiny scope — the small test device with eight
banks (so F7's 8-core mixes fit), one mix wherever the experiment takes a
mix scope, two seeds for F13, and a short horizon — and its ``to_json()``
must match ``tests/data/experiments_golden.json`` exactly: rows, summary
keys and their order, notes and columns.

Only regenerate the fixture when an experiment's output is meant to
change, and say so in the commit:

    PYTHONPATH=src python -m tests.test_experiments_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMOrganization,
    OSConfig,
    SystemConfig,
)
from repro.experiments import EXPERIMENTS, run_experiment
from repro.sim.runner import Runner

GOLDEN = Path(__file__).resolve().parent / "data" / "experiments_golden.json"

HORIZON = 10_000

#: F7's 8-core mixes need a longer run before povray retires anything.
HORIZONS = {"F7": 20_000}

MIX = ["M4"]

#: Scope arguments per experiment id; every id of the catalog appears.
SCOPES = {
    "T1": {},
    "T2": {"apps": ["lbm", "mcf", "gcc"]},
    "T3": {},
    "F1": {"apps": ["mcf", "lbm"]},
    "F2": {"mixes": MIX},
    "F3": {"mixes": MIX},
    "F4": {"mixes": MIX},
    "F5": {"mixes": MIX},
    "F6": {"mixes": MIX},
    "F7": {},
    "F8": {"mixes": MIX, "epochs": (5_000, 10_000)},
    "F9": {"mixes": MIX},
    "F10": {"mixes": MIX},
    "F11": {"mixes": MIX},
    "F12": {"mixes": MIX},
    "F13": {"mixes": MIX, "seeds": (1, 2)},
}


def golden_runner(horizon: int) -> Runner:
    """The small test device with eight banks, at a short horizon."""
    config = SystemConfig(
        num_cores=2,
        clock_ratio=2,
        dram_preset="DDR3-1066",
        organization=DRAMOrganization(
            channels=1,
            ranks_per_channel=1,
            banks_per_rank=8,
            rows_per_bank=256,
            row_size_bytes=8192,
        ),
        core=CoreConfig(width=4, rob_size=64, mshrs=8),
        cache=CacheConfig(size_bytes=16 * 1024, associativity=4),
        controller=ControllerConfig(
            read_queue_depth=32,
            write_queue_depth=32,
            write_high_watermark=24,
            write_low_watermark=8,
        ),
        osmm=OSConfig(migration_budget_pages=4, migration_lines_per_page=2),
    )
    return Runner(config=config, horizon=horizon, target_insts=200_000)


def run_golden(exp_id: str, runners: dict) -> str:
    """``exp_id`` at its golden scope, sharing one Runner per horizon."""
    horizon = HORIZONS.get(exp_id, HORIZON)
    if horizon not in runners:
        runners[horizon] = golden_runner(horizon)
    return run_experiment(exp_id, runners[horizon], **SCOPES[exp_id]).to_json()


@pytest.fixture(scope="module")
def runners():
    return {}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_experiment_is_pinned(golden):
    assert set(SCOPES) == set(EXPERIMENTS) == set(golden)


@pytest.mark.parametrize("exp_id", list(SCOPES))
def test_experiment_matches_golden(exp_id, runners, golden):
    assert run_golden(exp_id, runners) == golden[exp_id]


if __name__ == "__main__":
    runners: dict = {}
    document = {exp_id: run_golden(exp_id, runners) for exp_id in SCOPES}
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(document)} experiments to {GOLDEN}")
