"""Experiment harness smoke tests: structure and formatting.

The paper's claims are predicates over the campaigns' stage rows
(``repro.campaign.claims``, checked by test_claims.py); these verify
the harness mechanics at miniature scale.
"""


from repro.analysis.experiments import (
    fig3_area,
    fig4_latency,
    fig5_preemption,
    fig6_slowdown,
    fig7_energy,
    saturation,
    table2_fairness,
)
from repro.topologies.registry import TOPOLOGY_NAMES

#: Seed and frame of every simulated study here.
_SEED = 2
_FRAME = {"frame_cycles": 2000}
_TWO = ("mesh_x1", "dps")


def test_fig3_covers_all_topologies():
    rows = fig3_area.stage_rows()
    assert {row["topology"] for row in rows} == set(TOPOLOGY_NAMES)
    text = fig3_area.format_rows(rows)
    assert "Figure 3" in text
    for name in TOPOLOGY_NAMES:
        assert name in text


def test_fig4_structure_and_formatting():
    rows = fig4_latency.stage_rows(
        {"rates": (0.02, 0.05), "cycles": 1200, "warmup": 300,
         "topology_names": _TWO, **_FRAME},
        seed=_SEED,
    )
    uniform = [row for row in rows if row["panel"] == "uniform"]
    assert {row["topology"] for row in uniform} == set(_TWO)
    dps = [row for row in uniform if row["topology"] == "dps"]
    assert len(dps) == 2
    assert all(row["mean_latency"] > 0 for row in dps)
    text = fig4_latency.format_rows(rows)
    assert "uniform random" in text
    assert "tornado" in text


def test_table2_structure(capsys):
    rows = table2_fairness.stage_rows(
        {"rate": 0.05, "warmup": 500, "window": 2500, "topology_names": _TWO,
         **_FRAME},
        seed=_SEED,
    )
    assert [row["topology"] for row in rows] == list(_TWO)
    for row in rows:
        assert row["mean_flits"] > 0
    assert "Table 2" in table2_fairness.format_rows(rows)


def test_fig5_structure():
    rows = fig5_preemption.stage_rows(
        {"cycles": 4000, "topology_names": _TWO, **_FRAME}, seed=_SEED
    )
    assert len(rows) == 4  # 2 topologies x 2 workloads
    for row in rows:
        assert 0.0 <= row["wasted_hop_fraction"] <= 1.0
    assert "Figure 5" in fig5_preemption.format_rows(rows)


def test_fig6_structure():
    rows = fig6_slowdown.stage_rows(
        {"duration": 1500, "window": 2500, "warmup": 500,
         "topology_names": ("dps",), **_FRAME},
        seed=_SEED,
    )
    assert len(rows) == 2
    for row in rows:
        assert row["baseline_completion"] > 0
        assert row["pvc_completion"] > 0
        assert row["min_deviation"] <= row["avg_deviation"] <= row["max_deviation"]
    assert "Figure 6" in fig6_slowdown.format_rows(rows)


def test_fig7_structure():
    rows = fig7_energy.stage_rows()
    by_hop = {(row["topology"], row["hop"]): row["total_pj"] for row in rows}
    assert list(dict.fromkeys(row["topology"] for row in rows)) == list(
        TOPOLOGY_NAMES
    )
    for name in TOPOLOGY_NAMES:
        assert by_hop[name, "three_hops"] >= by_hop[name, "source"]
    assert "Figure 7" in fig7_energy.format_rows(rows)


def test_saturation_structure():
    rows = saturation.stage_rows(
        {"cycles": 1500, "topology_names": _TWO, **_FRAME}, seed=_SEED
    )
    assert len(rows) == 4  # 2 patterns x 2 topologies
    patterns = {row["pattern"] for row in rows}
    assert patterns == {"uniform", "tornado"}
    assert "saturation" in saturation.format_rows(rows)
