"""Ablation modules: structure and directional sanity at small scale."""

from repro.analysis.ablations import (
    frame,
    patience,
    quota,
    replica_policy,
    reserved_vc,
    topology_extension,
    window,
)

#: Seed and frame of every study here (the frame sweep sets its own).
_SEED = 2
_FRAME = {"frame_cycles": 4000}


def test_quota_ablation_endpoints():
    points = quota.stage_rows(
        {"shares": (0.0, 1.0), "cycles": 8000, **_FRAME}, seed=_SEED
    )
    assert points[0]["share"] == 0.0
    assert points[0]["quota_flits"] == 0.0
    assert points[1]["quota_flits"] == 4000.0
    assert points[1]["preemption_events"] == 0
    assert points[0]["preemption_events"] >= points[1]["preemption_events"]


def test_reserved_vc_ablation_covers_grid():
    points = reserved_vc.stage_rows({"cycles": 4500, **_FRAME}, seed=_SEED)
    cells = {(point["workload"], point["reserved"]) for point in points}
    assert len(cells) == 4


def test_patience_ablation_monotone_small():
    points = patience.stage_rows(
        {"patience_values": (0, 32), "cycles": 8000, **_FRAME}, seed=_SEED
    )
    assert points[0]["preemption_events"] >= points[1]["preemption_events"]


def test_frame_ablation_reports_both_axes():
    points = frame.stage_rows(
        {"frames": (2000, 10_000), "window": 6000}, seed=_SEED
    )
    assert len(points) == 2
    for point in points:
        assert point["fairness_std"] >= 0.0
        assert point["adversarial_preemptions"] >= 0


def test_window_ablation_monotone():
    points = window.stage_rows(
        {"windows": (1, 16), "cycles": 3000, **_FRAME}, seed=_SEED
    )
    assert points[0]["delivered_flits"] < points[1]["delivered_flits"]


def test_replica_ablation_grid():
    points = replica_policy.stage_rows(
        {"replications": (2,), "cycles": 6000, **_FRAME}, seed=_SEED
    )
    assert {point["policy"] for point in points} == {"packet_rr", "per_flow"}


def test_fbfly_study_rows():
    rows = topology_extension.stage_rows({"cycles": 1500, **_FRAME}, seed=_SEED)
    assert [row["topology"] for row in rows] == ["mecs", "dps", "fbfly"]
    for row in rows:
        assert row["uniform_latency"] > 0
        assert row["router_area_mm2"] > 0
