"""T2: measured alone-run benchmark characteristics."""

from repro.experiments import run_experiment

from conftest import QUICK, run_once, shape_checks_enabled, show

APPS = (
    ["mcf", "libquantum", "lbm", "gcc"]
    if QUICK
    else None  # None = every application profile
)


def bench_t2_characteristics(runner, benchmark):
    result = run_once(benchmark, lambda: run_experiment("T2", runner, apps=APPS))
    show(result)
    rows = {row[0]: row for row in result.rows}
    if not shape_checks_enabled():
        return
    # The structural facts every policy in the paper keys on:
    assert rows["mcf"][4] > rows["libquantum"][4]  # mcf BLP >> streamer BLP
    assert rows["libquantum"][3] > rows["mcf"][3]  # streamer RBH >> mcf RBH
    assert rows["lbm"][2] > 1.0 and rows["gcc"][2] < 1.0  # intensity classes
