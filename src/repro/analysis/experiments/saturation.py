"""Section 5.2 — packet discard (preemption) rates in saturation.

The paper reports, for saturated uniform-random traffic, that the
baseline mesh replays nearly 7% of packets, MECS just 0.04%, and
mesh x2 / mesh x4 / DPS replay 5% / 0.1% / 2%; tornado generates fewer
preemptions for every topology, and topologies with greater channel
resources show better immunity.
"""

from __future__ import annotations

from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    # Per-injector rate that saturates every topology (64 injectors).
    "rate": 0.15,
    "cycles": 8000,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (pattern, topology): its saturation preemption rate."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "saturation")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cells = [
        (label, pattern, name)
        for label, pattern in (("uniform", "uniform_random"), ("tornado", "tornado"))
        for name in p["topology_names"]
    ]
    specs = [
        RunSpec(
            topology=name,
            workload="full_column",
            rate=p["rate"],
            workload_params={"pattern": pattern},
            config=config,
            cycles=p["cycles"],
        )
        for _, pattern, name in cells
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        {
            "topology": name,
            "pattern": label,
            "replayed_packet_fraction": result.preempted_packet_fraction,
            "preemption_events": result.preemption_events,
            "delivered_flits": result.delivered_flits,
        }
        for (label, _, name), result in zip(cells, batch.results)
    ]


def format_rows(rows: list[dict]) -> str:
    """Render the Section 5.2 saturation statistics."""
    return format_columns(
        rows,
        {
            "pattern": "pattern",
            "topology": "topology",
            "replayed pkts (%)": ("replayed_packet_fraction", percent),
            "events": "preemption_events",
            "delivered flits": "delivered_flits",
        },
        title="Section 5.2: preemption rates in saturation",
        float_format=".2f",
    )
