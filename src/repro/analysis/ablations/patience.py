"""Ablation: the preemption-patience window (inversion detection).

PVC "detects priority inversion situations and resolves them through
preemption"; the paper does not specify how long a conflict must
persist before it counts as an inversion.  This reproduction requires a
blocked candidate to wait ``preemption_patience_cycles`` before it may
discard a victim.  The sweep shows the stability trade: an impatient
trigger preempts on transient conflicts and thrashes, while an
over-patient one approaches preemption-free behaviour (and its
head-of-line blocking).
"""

from __future__ import annotations

from dataclasses import replace

from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "topology_name": "mesh_x1",
    "patience_values": (0, 4, 8, 16, 32, 64),
    "cycles": 20_000,
    "frame_cycles": 10_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per inversion-detection window under Workload 1."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_patience")
    base = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cycles = p["cycles"]
    specs = [
        RunSpec(
            topology=p["topology_name"],
            workload="workload1",
            config=replace(base, preemption_patience_cycles=patience),
            cycles=cycles,
            warmup=cycles // 4,
        )
        for patience in p["patience_values"]
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        {
            "patience": patience,
            "preemption_events": result.preemption_events,
            "preempted_packet_fraction": result.preempted_packet_fraction,
            "wasted_hop_fraction": result.wasted_hop_fraction,
            "mean_latency": result.mean_latency,
        }
        for patience, result in zip(p["patience_values"], batch.results)
    ]


def format_rows(rows: list[dict]) -> str:
    """Render the patience sweep."""
    return format_columns(
        rows,
        {
            "patience (cyc)": "patience",
            "preemptions": "preemption_events",
            "packets (%)": ("preempted_packet_fraction", percent),
            "hops (%)": ("wasted_hop_fraction", percent),
            "latency (cyc)": "mean_latency",
        },
        title="Ablation: preemption patience (inversion detection window)",
        float_format=".1f",
    )
