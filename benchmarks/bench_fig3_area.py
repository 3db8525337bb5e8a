"""Figure 3 — router area overhead (analytical)."""

from conftest import run_once

from repro.analysis.experiments.fig3_area import format_rows, run_fig3, summary_rows


def test_fig3_router_area(benchmark):
    results = run_once(benchmark, run_fig3)
    print()
    print(format_rows(summary_rows(results)))
    totals = {name: b.total_mm2 for name, b in results.items()}
    # Paper shape: x1 most compact, x4 largest, MECS ~ DPS in between.
    assert min(totals, key=totals.get) == "mesh_x1"
    assert max(totals, key=totals.get) == "mesh_x4"
