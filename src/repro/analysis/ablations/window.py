"""Ablation: the per-source retransmission window.

PVC retransmits discarded packets from "a per-source window of
outstanding packets".  A small window throttles throughput to one
window per ACK round trip; a large one costs source buffering.  The
sweep measures a single long-haul flow (the worst round trip in the
column).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

DEFAULT_WINDOWS: tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "topology_name": "mesh_x1",
    "windows": DEFAULT_WINDOWS,
    "cycles": 6_000,
    "frame_cycles": 10_000,
}


@dataclass(frozen=True)
class WindowPoint:
    """Outcome of one window size."""

    window_packets: int
    delivered_flits: int
    mean_latency: float


def run_window_ablation(
    *,
    topology_name: str = "mesh_x1",
    windows: tuple[int, ...] = DEFAULT_WINDOWS,
    cycles: int = 6_000,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[WindowPoint]:
    """Sweep the retransmission window for a saturated 0->7 flow."""
    base = config or SimulationConfig(frame_cycles=10_000, seed=1)
    specs = [
        RunSpec(
            topology=topology_name,
            workload="single_flow",
            rate=0.9,
            workload_params={"node": 0, "dst": 7, "flits": 1},
            config=replace(base, window_packets=window),
            cycles=cycles,
            warmup=cycles // 4,
        )
        for window in windows
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        WindowPoint(
            window_packets=window,
            delivered_flits=result.delivered_flits,
            mean_latency=result.mean_latency,
        )
        for window, result in zip(windows, batch.results)
    ]


def summary_rows(points: list[WindowPoint]) -> list[dict]:
    """One plain row per retransmission-window size."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_window")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_window_ablation(**p, config=config, executor=executor, cache=cache)
    )


def format_rows(rows: list[dict]) -> str:
    """Render the window sweep."""
    return format_columns(
        rows,
        {
            "window (pkts)": "window_packets",
            "delivered flits": "delivered_flits",
            "latency (cyc)": "mean_latency",
        },
        title="Ablation: retransmission window vs long-haul throughput",
        float_format=".1f",
    )
