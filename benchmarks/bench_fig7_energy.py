"""Figure 7 — router energy per flit by hop type (analytical)."""

from conftest import run_once

from repro.analysis.experiments.fig7_energy import format_rows, run_fig7, summary_rows


def test_fig7_router_energy(benchmark):
    rows = run_once(benchmark, run_fig7)
    print()
    print(format_rows(summary_rows(rows)))
    totals = {row.topology: row.three_hops.total_pj for row in rows}
    # Paper: DPS saves ~17% vs mesh x1 and ~33% vs mesh x4 on 3 hops;
    # MECS and DPS nearly identical.
    assert 0.10 < 1 - totals["dps"] / totals["mesh_x1"] < 0.30
    assert 0.25 < 1 - totals["dps"] / totals["mesh_x4"] < 0.45
    assert abs(totals["mecs"] - totals["dps"]) / totals["dps"] < 0.15
