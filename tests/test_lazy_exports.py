"""Lazy package exports keep the public API: same names, same objects."""

import importlib
import pickle

import pytest

import repro

PACKAGES = [
    "repro", "repro.baselines", "repro.cache", "repro.campaign",
    "repro.core", "repro.cpu", "repro.dram", "repro.experiments",
    "repro.faults", "repro.mapping", "repro.memctrl", "repro.metrics",
    "repro.osmm", "repro.results", "repro.sim", "repro.telemetry",
    "repro.traces", "repro.tuner", "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for attr in package.__all__:
        assert getattr(package, attr) is not None, f"{name}.{attr}"
    assert set(package.__all__) <= set(dir(package))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_from_import_and_misspelt_attribute():
    from repro import Runner, System, get_mix

    assert Runner.__module__ == "repro.sim.runner"
    assert System.__module__ == "repro.sim.system"
    assert get_mix("M4").name == "M4"
    assert repro.__version__
    with pytest.raises(AttributeError, match="no attribute 'Runer'"):
        repro.Runer
    with pytest.raises(ImportError):
        exec("from repro.sim import Runer")


def test_result_records_are_one_object_everywhere():
    import repro.records as records
    import repro.sim as sim
    import repro.sim.runner as runner
    import repro.sim.system as system

    for name, homes in {
        "RunResult": (repro, sim, runner),
        "WorkloadRunMetrics": (repro, sim, runner),
        "SystemResult": (repro, sim, system, runner),
        "ThreadResult": (system,),
        "describe_run": (runner,),
    }.items():
        for home in homes:
            assert getattr(home, name) is getattr(records, name), (name, home)


def test_records_pickle_round_trip_under_either_home():
    from repro.metrics import MetricSummary
    from repro.sim.runner import RunResult, WorkloadRunMetrics
    from repro.sim.system import SystemResult, ThreadResult

    thread = ThreadResult(0, "mcf", 0.5, 1000, 10, 2, 0.3, 0.6, 120.0)
    result = RunResult(
        metrics=WorkloadRunMetrics(
            "M4", "dbp", MetricSummary(1.5, 0.7, 1.4), {0: 1.4}, ("mcf",)
        ),
        system=SystemResult(horizon=1000, threads={0: thread}),
    )
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    # A pickle naming the old home (protocol 0 spells the module out as
    # text, so it can be rewritten) still loads as the one class.
    old_home = pickle.dumps(thread, protocol=0).replace(
        b"repro.records", b"repro.sim.system"
    )
    assert pickle.loads(old_home) == thread
