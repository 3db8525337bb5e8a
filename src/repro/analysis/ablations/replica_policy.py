"""Ablation: replica selection in replicated meshes.

Figure 5 blames the replicated meshes' preemption thrash on "flows
traveling on parallel networks converging at the destination node".
That convergence is a consequence of per-packet round-robin replica
selection.  Pinning each flow to one replica (a static hash) removes
the destination re-convergence — this ablation quantifies how much of
the thrash that policy change eliminates, at what load-balancing cost.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.mesh import REPLICA_PACKET_RR, REPLICA_PER_FLOW
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "replications": (2, 4),
    "cycles": 15_000,
    "frame_cycles": 10_000,
}


@dataclass(frozen=True)
class ReplicaPoint:
    """One (replication, policy) cell."""

    replication: int
    policy: str
    w2_preempted_fraction: float
    w2_wasted_hop_fraction: float
    uniform_latency: float


def run_replica_ablation(
    *,
    replications: tuple[int, ...] = (2, 4),
    cycles: int = 15_000,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[ReplicaPoint]:
    """Workload 2 thrash and uniform-random latency per policy."""
    base = config or SimulationConfig(frame_cycles=10_000, seed=1)
    cells = [
        (replication, policy_name)
        for replication in replications
        for policy_name in (REPLICA_PACKET_RR, REPLICA_PER_FLOW)
    ]
    specs = []
    for replication, policy_name in cells:
        topology_params = {"replica_policy": policy_name}
        specs.append(
            RunSpec(
                topology=f"mesh_x{replication}",
                topology_params=topology_params,
                workload="workload2",
                config=base,
                cycles=cycles,
            )
        )
        specs.append(
            RunSpec(
                topology=f"mesh_x{replication}",
                topology_params=topology_params,
                workload="full_column",
                rate=0.07,
                config=base,
                cycles=4000,
                warmup=1000,
            )
        )
    batch = run_batch(specs, executor=executor, cache=cache)
    points = []
    for index, (replication, policy_name) in enumerate(cells):
        adv, load = batch.results[2 * index : 2 * index + 2]
        points.append(
            ReplicaPoint(
                replication=replication,
                policy=policy_name,
                w2_preempted_fraction=adv.preempted_packet_fraction,
                w2_wasted_hop_fraction=adv.wasted_hop_fraction,
                uniform_latency=load.mean_latency,
            )
        )
    return points


def summary_rows(points: list[ReplicaPoint]) -> list[dict]:
    """One plain row per (replication, policy)."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_replica")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_replica_ablation(**p, config=config, executor=executor, cache=cache)
    )


def format_rows(rows: list[dict]) -> str:
    """Render the replica-policy ablation."""
    return format_columns(
        rows,
        {
            "topology": ("replication", "mesh_x{}".format),
            "replica policy": "policy",
            "W2 packets (%)": ("w2_preempted_fraction", percent),
            "W2 hops (%)": ("w2_wasted_hop_fraction", percent),
            "uniform lat (cyc)": "uniform_latency",
        },
        title="Ablation: replica selection vs destination-convergence thrash",
        float_format=".1f",
    )
