"""Figure 5 — preemption behaviour under the adversarial workloads.

Both workloads are hotspot-based with only a subset of sources active,
so the reserved quota exhausts early in each frame and subsequent
arrivals at low-consumption sources trigger preemption chains.  Two
metrics per topology (each preemption of a packet counts separately):

* fraction of packets that experience a preemption event;
* fraction of hop traversals wasted and replayed — hops are counted in
  mesh-equivalent tile units, so a preempted MECS packet that crossed
  four tiles wastes four hops.

The default frame is scaled to 10K cycles (from the paper's 50K) so
multiple quota-exhaustion episodes fit in a short run; the reserved
quota scales with the frame, preserving the adversarial dynamics.
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
    "cycles": 25_000,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (workload, topology) for Workloads 1 and 2."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig5")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cells = [
        (workload_name, topology_name)
        for workload_name in ("workload1", "workload2")
        for topology_name in p["topology_names"]
    ]
    specs = [
        RunSpec(
            topology=topology_name,
            workload=workload_name,
            config=config,
            cycles=p["cycles"],
        )
        for workload_name, topology_name in cells
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        {
            "topology": topology_name,
            "workload": workload_name,
            "preempted_packet_fraction": result.preempted_packet_fraction,
            "wasted_hop_fraction": result.wasted_hop_fraction,
            "preemption_events": result.preemption_events,
            "delivered_packets": result.delivered_packets,
        }
        for (workload_name, topology_name), result in zip(cells, batch.results)
    ]


def format_rows(rows: list[dict]) -> str:
    """Render Figure 5(a)/(b) as a table."""
    return format_columns(
        rows,
        {
            "workload": "workload",
            "topology": "topology",
            "packets (%)": ("preempted_packet_fraction", percent),
            "hops (%)": ("wasted_hop_fraction", percent),
            "events": "preemption_events",
        },
        title="Figure 5: preemption rate under adversarial workloads",
        float_format=".1f",
    )
