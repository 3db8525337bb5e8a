"""Ablation: replica selection in replicated meshes.

Figure 5 blames the replicated meshes' preemption thrash on "flows
traveling on parallel networks converging at the destination node".
That convergence is a consequence of per-packet round-robin replica
selection.  Pinning each flow to one replica (a static hash) removes
the destination re-convergence — this ablation quantifies how much of
the thrash that policy change eliminates, at what load-balancing cost.
"""

from __future__ import annotations

from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.mesh import REPLICA_PACKET_RR, REPLICA_PER_FLOW
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "replications": (2, 4),
    "cycles": 15_000,
    "frame_cycles": 10_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (replication, replica policy): Workload 2 thrash and
    uniform-random latency."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_replica")
    base = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cells = [
        (replication, policy_name)
        for replication in p["replications"]
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
                cycles=p["cycles"],
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
    rows = []
    for index, (replication, policy_name) in enumerate(cells):
        adv, load = batch.results[2 * index : 2 * index + 2]
        rows.append(
            {
                "replication": replication,
                "policy": policy_name,
                "w2_preempted_fraction": adv.preempted_packet_fraction,
                "w2_wasted_hop_fraction": adv.wasted_hop_fraction,
                "uniform_latency": load.mean_latency,
            }
        )
    return rows


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
