"""Figure 6 — preemption slowdown and deviation from max-min fairness.

Two measurements per topology and adversarial workload:

* **Slowdown** — completion time of a finite packet budget under PVC,
  relative to preemption-free execution of the same workload on the
  same topology with per-flow queuing (the paper's reference).  The
  paper finds less than 5% across the board.
* **Deviation** — per-source throughput against the expectation from
  max-min fairness over the sources' offered rates and the 1-flit/cycle
  hotspot ejection capacity.  The thick bar in the paper is the average
  across sources (essentially zero); the error bars are the per-source
  extremes (a few percent).

Each (workload, topology) cell needs three independent simulations —
PVC drain, per-flow-queued drain, and a continuous windowed run — all
submitted to the runtime as one batch (30 runs for the paper's five
topologies), so a parallel executor overlaps them freely.
"""

from __future__ import annotations

from repro.analysis.fairness import deviation_from_expected, max_min_allocation
from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.traffic.workloads import workload1, workload2
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

_WORKLOADS = {"workload1": workload1, "workload2": workload2}

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "duration": 12_000,
    "window": 15_000,
    "warmup": 3000,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One slowdown + fairness-deviation row per (workload, topology)."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig6")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    duration, window = p["duration"], p["window"]
    cells = [
        (workload_name, topology_name)
        for workload_name in _WORKLOADS
        for topology_name in p["topology_names"]
    ]
    specs = []
    for workload_name, topology_name in cells:
        # Slowdown: finite budget, PVC vs per-flow-queued baseline.
        for policy in ("pvc", "perflow"):
            specs.append(
                RunSpec(
                    topology=topology_name,
                    workload=f"{workload_name}_finite",
                    workload_params={"duration": duration},
                    policy=policy,
                    config=config,
                    mode="drain",
                    cycles=40 * duration,
                )
            )
        # Deviation: continuous run, windowed per-source throughput.
        specs.append(
            RunSpec(
                topology=topology_name,
                workload=workload_name,
                config=config,
                mode="window",
                cycles=window,
                warmup=p["warmup"],
            )
        )
    batch = run_batch(specs, executor=executor, cache=cache)

    rows = []
    for index, (workload_name, topology_name) in enumerate(cells):
        pvc, base, cont = batch.results[3 * index : 3 * index + 3]
        pvc_done = pvc.completion_cycle
        base_done = base.completion_cycle
        demands = [flow.rate for flow in _WORKLOADS[workload_name]()]
        allocation = max_min_allocation(demands, 1.0)
        expected = [alloc * window for alloc in allocation]
        _, avg_dev, min_dev, max_dev = deviation_from_expected(
            [float(v) for v in cont.window_flits_per_flow], expected
        )
        rows.append(
            {
                "topology": topology_name,
                "workload": workload_name,
                "slowdown": pvc_done / base_done - 1.0 if base_done else 0.0,
                "avg_deviation": avg_dev,
                "min_deviation": min_dev,
                "max_deviation": max_dev,
                "pvc_completion": pvc_done,
                "baseline_completion": base_done,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render Figure 6(a)/(b) as a table."""
    return format_columns(
        rows,
        {
            "workload": "workload",
            "topology": "topology",
            "slowdown (%)": ("slowdown", percent),
            "avg dev (%)": ("avg_deviation", percent),
            "min dev (%)": ("min_deviation", percent),
            "max dev (%)": ("max_deviation", percent),
        },
        title="Figure 6: slowdown vs preemption-free and deviation from max-min",
        float_format=".2f",
    )
