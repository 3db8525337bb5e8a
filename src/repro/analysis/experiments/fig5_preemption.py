"""Figure 5 — preemption behaviour under the adversarial workloads.

Both workloads are hotspot-based with only a subset of sources active,
so the reserved quota exhausts early in each frame and subsequent
arrivals at low-consumption sources trigger preemption chains.  Two
metrics per topology (each preemption of a packet counts separately):

* fraction of packets that experience a preemption event;
* fraction of hop traversals wasted and replayed — hops are counted in
  mesh-equivalent tile units, so a preempted MECS packet that crossed
  four tiles wastes four hops.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "cycles": 25_000,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


@dataclass(frozen=True)
class Fig5Row:
    """One topology's preemption metrics for one workload."""

    topology: str
    workload: str
    preempted_packet_fraction: float
    wasted_hop_fraction: float
    preemption_events: int
    delivered_packets: int


def run_fig5(
    *,
    cycles: int = 25_000,
    topology_names: tuple[str, ...] = TOPOLOGY_NAMES,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[Fig5Row]:
    """Run Workload 1 and Workload 2 on every topology.

    The default frame is scaled to 10K cycles (from the paper's 50K) so
    multiple quota-exhaustion episodes fit in a short run; the reserved
    quota scales with the frame, preserving the adversarial dynamics.
    """
    config = config or SimulationConfig(frame_cycles=10_000)
    cells = [
        (workload_name, topology_name)
        for workload_name in ("workload1", "workload2")
        for topology_name in topology_names
    ]
    specs = [
        RunSpec(
            topology=topology_name,
            workload=workload_name,
            config=config,
            cycles=cycles,
        )
        for workload_name, topology_name in cells
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        Fig5Row(
            topology=topology_name,
            workload=workload_name,
            preempted_packet_fraction=result.preempted_packet_fraction,
            wasted_hop_fraction=result.wasted_hop_fraction,
            preemption_events=result.preemption_events,
            delivered_packets=result.delivered_packets,
        )
        for (workload_name, topology_name), result in zip(cells, batch.results)
    ]


def summary_rows(rows: list[Fig5Row]) -> list[dict]:
    """One plain row per (workload, topology)."""
    return [asdict(row) for row in rows]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig5")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_fig5(**p, config=config, executor=executor, cache=cache)
    )


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
