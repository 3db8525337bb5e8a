"""Experiment harness smoke tests: structure and formatting.

Heavy qualitative claims live in test_paper_claims.py; these verify the
harness mechanics at miniature scale.
"""


from repro.analysis.experiments import (
    fig3_area,
    fig4_latency,
    fig5_preemption,
    fig6_slowdown,
    fig7_energy,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_saturation,
    run_table2,
    saturation,
    table2_fairness,
)
from repro.network.config import SimulationConfig
from repro.topologies.registry import TOPOLOGY_NAMES

_FAST = SimulationConfig(frame_cycles=2000, seed=2)
_TWO = ("mesh_x1", "dps")


def test_fig3_covers_all_topologies():
    results = run_fig3()
    assert set(results) == set(TOPOLOGY_NAMES)
    text = fig3_area.format_rows(fig3_area.summary_rows(results))
    assert "Figure 3" in text
    for name in TOPOLOGY_NAMES:
        assert name in text


def test_fig4_structure_and_formatting():
    result = run_fig4(
        rates=(0.02, 0.05), cycles=1200, warmup=300,
        topology_names=_TWO, config=_FAST,
    )
    assert set(result.uniform) == set(_TWO)
    assert len(result.uniform["dps"]) == 2
    assert all(point.mean_latency > 0 for point in result.uniform["dps"])
    text = fig4_latency.format_rows(fig4_latency.summary_rows(result))
    assert "uniform random" in text
    assert "tornado" in text


def test_table2_structure(capsys):
    rows = run_table2(
        rate=0.05, warmup=500, window=2500, topology_names=_TWO, config=_FAST
    )
    assert [row.topology for row in rows] == list(_TWO)
    for row in rows:
        assert row.report.mean_flits > 0
    assert "Table 2" in table2_fairness.format_rows(table2_fairness.summary_rows(rows))


def test_fig5_structure():
    rows = run_fig5(cycles=4000, topology_names=_TWO, config=_FAST)
    assert len(rows) == 4  # 2 topologies x 2 workloads
    for row in rows:
        assert 0.0 <= row.wasted_hop_fraction <= 1.0
    assert "Figure 5" in fig5_preemption.format_rows(fig5_preemption.summary_rows(rows))


def test_fig6_structure():
    rows = run_fig6(
        duration=1500, window=2500, warmup=500,
        topology_names=("dps",), config=_FAST,
    )
    assert len(rows) == 2
    for row in rows:
        assert row.baseline_completion > 0
        assert row.pvc_completion > 0
        assert row.min_deviation <= row.avg_deviation <= row.max_deviation
    assert "Figure 6" in fig6_slowdown.format_rows(fig6_slowdown.summary_rows(rows))


def test_fig7_structure():
    rows = run_fig7()
    assert [row.topology for row in rows] == list(TOPOLOGY_NAMES)
    for row in rows:
        composite = row.three_hops.total_pj
        assert composite >= row.source.total_pj
    assert "Figure 7" in fig7_energy.format_rows(fig7_energy.summary_rows(rows))


def test_saturation_structure():
    points = run_saturation(cycles=1500, topology_names=_TWO, config=_FAST)
    assert len(points) == 4  # 2 patterns x 2 topologies
    patterns = {point.pattern for point in points}
    assert patterns == {"uniform", "tornado"}
    assert "saturation" in saturation.format_rows(saturation.summary_rows(points))
