"""Ablation: the per-source retransmission window.

PVC retransmits discarded packets from "a per-source window of
outstanding packets".  A small window throttles throughput to one
window per ACK round trip; a large one costs source buffering.  The
sweep measures a single long-haul flow (the worst round trip in the
column).
"""

from __future__ import annotations

from dataclasses import replace

from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "topology_name": "mesh_x1",
    "windows": (1, 2, 4, 8, 16, 32),
    "cycles": 6_000,
    "frame_cycles": 10_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per retransmission-window size for a saturated 0->7 flow."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_window")
    base = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cycles = p["cycles"]
    specs = [
        RunSpec(
            topology=p["topology_name"],
            workload="single_flow",
            rate=0.9,
            workload_params={"node": 0, "dst": 7, "flits": 1},
            config=replace(base, window_packets=window),
            cycles=cycles,
            warmup=cycles // 4,
        )
        for window in p["windows"]
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        {
            "window_packets": window,
            "delivered_flits": result.delivered_flits,
            "mean_latency": result.mean_latency,
        }
        for window, result in zip(p["windows"], batch.results)
    ]


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
