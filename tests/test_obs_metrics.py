"""Windowed metrics: bucketing math, JSONL round trips, invariants."""

import pytest

from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_FORMAT,
    METRICS_VERSION,
    ObsSession,
    WindowedMetrics,
    read_metrics,
    write_metrics,
)
from repro.qos.pvc import PvcPolicy
from repro.scenarios.tracefmt import file_sha256
from repro.topologies.registry import get_topology
from repro.traffic.workloads import full_column_workload


def hand_driven_metrics():
    """Window=10, 2 flows, 3 ports, buckets (4, 8); a scripted run."""
    metrics = WindowedMetrics(
        window=10, n_flows=2, n_ports=3, latency_buckets=(4, 8)
    )
    metrics.on_admit(1, 0, 0, 0, 3, 4, False)
    metrics.on_inject(1, 0, 0, "inj", 0)
    metrics.on_hop(3, 0, 0, 2, "MS", 4, False, 0)
    metrics.on_deliver(5, 0, 0, 3, 4, 4)        # latency 4 -> bucket <=4
    metrics.on_admit(12, 1, 1, 1, 2, 2, False)
    metrics.on_inject(12, 1, 1, "inj", 0)
    metrics.on_deliver(19, 1, 1, 2, 2, 9)       # latency 9 -> overflow
    metrics.finalize(25)
    return metrics


def test_window_boundaries_and_counters():
    rows = hand_driven_metrics().rows
    assert [(r["start"], r["end"]) for r in rows] == [(0, 10), (10, 20), (20, 25)]
    assert [r["w"] for r in rows] == [0, 1, 2]
    assert rows[0]["created"] == [1, 0]
    assert rows[0]["flits"] == [4, 0]
    assert rows[0]["injected"] == 1 and rows[0]["hops"] == 1
    assert rows[0]["port_busy"] == {"2": 4}
    assert rows[1]["flits"] == [0, 2]
    assert rows[2]["injected"] == 0  # trailing idle partial window


def test_latency_buckets_are_upper_bounds():
    rows = hand_driven_metrics().rows
    assert rows[0]["lat_hist"] == [1, 0, 0]   # 4 lands in <=4
    assert rows[1]["lat_hist"] == [0, 0, 1]   # 9 overflows past 8
    assert rows[0]["lat_sum"] == 4 and rows[0]["lat_n"] == 1


def test_occupancy_is_time_weighted():
    rows = hand_driven_metrics().rows
    # One packet in flight cycles 1..5 -> 4 occupied cycles of 10.
    assert rows[0]["occupancy"] == pytest.approx(0.4)
    # Second packet in flight cycles 12..19 -> 7 of 10.
    assert rows[1]["occupancy"] == pytest.approx(0.7)
    assert rows[2]["occupancy"] == 0.0


def test_idle_gaps_emit_explicit_empty_rows():
    metrics = WindowedMetrics(window=10, n_flows=1, n_ports=1)
    metrics.on_admit(35, 0, 0, 0, 0, 1, False)
    metrics.finalize(40)
    assert len(metrics.rows) == 4
    assert [r["created"] for r in metrics.rows] == [[0], [0], [0], [1]]


def test_finalize_is_idempotent_and_window_validated():
    metrics = hand_driven_metrics()
    before = len(metrics.rows)
    metrics.finalize(25)
    assert len(metrics.rows) == before
    with pytest.raises(ConfigurationError):
        WindowedMetrics(window=0, n_flows=1, n_ports=1)


def test_jsonl_round_trip(tmp_path):
    metrics = hand_driven_metrics()
    path = tmp_path / "m.metrics.jsonl"
    digest = write_metrics(
        path,
        window_cycles=10,
        n_flows=2,
        ports=["a", "b", "c"],
        latency_buckets=(4, 8),
        rows=metrics.rows,
        meta={"label": "scripted"},
    )
    assert digest == file_sha256(path)
    doc = read_metrics(path)
    assert doc.header["format"] == METRICS_FORMAT
    assert doc.header["version"] == METRICS_VERSION
    assert doc.window_cycles == 10
    assert doc.n_flows == 2
    assert doc.ports == ["a", "b", "c"]
    assert tuple(doc.latency_buckets) == (4, 8)
    assert doc.meta == {"label": "scripted"}
    assert list(doc.windows) == metrics.rows


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: ["not json"] + lines[1:],
        lambda lines: [lines[0].replace(METRICS_FORMAT, "other-format")]
        + lines[1:],
        lambda lines: [lines[0].replace('"version": 1', '"version": 99')]
        + lines[1:],
        lambda lines: [lines[0]] + lines[2:],            # window gap
        lambda lines: [lines[0]] + [lines[1].replace('"w":0', '"w":7')]
        + lines[2:],
        lambda lines: [lines[0]]
        + [lines[1].replace('"flits":[4,0]', '"flits":[4]')] + lines[2:],
        lambda lines: [lines[0]]
        + [lines[1].replace('"lat_hist":[1,0,0]', '"lat_hist":[1]')]
        + lines[2:],
        lambda lines: [lines[0]]
        + [lines[1].replace('"injected"', '"unexpected"')] + lines[2:],
    ],
)
def test_validation_rejects_corruption(tmp_path, corrupt):
    path = tmp_path / "m.metrics.jsonl"
    write_metrics(
        path, window_cycles=10, n_flows=2, ports=["a", "b", "c"],
        latency_buckets=(4, 8), rows=hand_driven_metrics().rows,
    )
    lines = path.read_text().splitlines()
    mutated = corrupt(lines)
    assert mutated != lines, "corruption must change the file"
    path.write_text("\n".join(mutated) + "\n")
    with pytest.raises(ConfigurationError):
        read_metrics(path)


def test_window_totals_match_engine_stats():
    # Cross-check against the simulator's own counters: summed across
    # windows, the metrics must reproduce the run totals exactly.
    config = SimulationConfig(frame_cycles=1500, seed=9)
    build = get_topology("mecs").build(config)
    simulator = ColumnSimulator(
        build, full_column_workload(0.2), PvcPolicy(), config
    )
    session = ObsSession(window=300)
    session.attach(simulator)
    stats = simulator.run(2500)
    session.finalize(simulator.cycle)
    rows = session.metrics.rows
    assert sum(sum(r["flits"]) for r in rows) == stats.delivered_flits
    assert sum(r["lat_n"] for r in rows) == sum(
        sum(r["packets"]) for r in rows
    )
    assert rows[-1]["end"] == simulator.cycle
    assert session.metrics.buckets == DEFAULT_LATENCY_BUCKETS
