"""Load-sweep mechanics: one latency/throughput curve per topology."""

from repro.network.config import SimulationConfig
from repro.runtime.runner import run_grid
from repro.runtime.spec import RunResult

_FAST = SimulationConfig(frame_cycles=2000, seed=4)


def _curve(topology: str, rates: list[float], **options) -> list[RunResult]:
    """One topology's curve of uniform-traffic points, in rate order."""
    grid = run_grid([topology], rates, workload="uniform", config=_FAST, **options)
    assert grid.rates == tuple(rates)
    return grid.curves[topology]


def test_sweep_one_point_per_rate():
    points = _curve("dps", [0.02, 0.05, 0.08], cycles=1200, warmup=300)
    assert len(points) == 3
    assert len({point.spec_hash for point in points}) == 3
    assert all(isinstance(point, RunResult) for point in points)


def test_sweep_latency_grows_with_load():
    points = _curve("mesh_x1", [0.02, 0.30], cycles=2000, warmup=500)
    assert points[1].mean_latency > points[0].mean_latency


def test_sweep_throughput_grows_below_saturation():
    points = _curve("mecs", [0.02, 0.06], cycles=2000, warmup=500)
    assert points[1].delivered_flits > points[0].delivered_flits


def test_sweep_accepts_alternate_policy():
    points = _curve("mesh_x1", [0.05], cycles=1200, warmup=300, policy="perflow")
    assert points[0].preemption_events == 0


def test_sweep_accepted_ratio_bounded():
    points = _curve("dps", [0.05], cycles=1500, warmup=300)
    assert 0.0 < points[0].accepted_ratio <= 1.0
