"""F4: scheduling x partitioning — TCM, MCP, EBP-TCM, DBP-TCM (claims C2, C3).

Paper: DBP-TCM improves over TCM by +6.2% WS and +16.7% fairness (C2), and
over MCP by +5.3% WS and +37% fairness (C3). Reproduced shapes: DBP-TCM
beats MCP clearly on both metrics, beats TCM on fairness, and the MCP
fairness gap is the largest gap in the figure.
"""

from repro.experiments import run_experiment

from conftest import BENCH_MIXES, run_once, shape_checks_enabled, show


def bench_f4_dbp_tcm(runner, benchmark):
    result = run_once(
        benchmark,
        lambda: run_experiment("F4", runner, mixes=BENCH_MIXES),
    )
    show(result)
    if not shape_checks_enabled():
        return
    summary = result.summary
    # C3: both deltas against MCP clearly positive for DBP-TCM.
    assert summary["dbptcm_vs_mcp_ws_pct"] > 0.0
    assert summary["dbptcm_vs_mcp_ms_pct"] < 0.0
    # C2: fairness gain over TCM; throughput at worst a wash.
    assert summary["dbptcm_vs_tcm_ms_pct"] < 0.0
    assert summary["dbptcm_vs_tcm_ws_pct"] > -2.0
    # The MCP fairness gap dominates the TCM fairness gap (37% vs 16.7%).
    assert summary["dbptcm_vs_mcp_ms_pct"] < summary["dbptcm_vs_tcm_ms_pct"]
