"""Ablation: the reserved per-frame quota (PVC's main preemption throttle).

The quota makes a source's first N flits per frame non-preemptable,
with N sized for the provisioned injector population.  Sweeping the
quota share under Workload 1 shows the trade: a zero quota exposes
every packet to preemption; a full-frame quota suppresses preemption
entirely (and with it PVC's ability to fix inversions quickly).
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
    "shares": (0.0, 1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0),
    "cycles": 20_000,
    "frame_cycles": 10_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per reserved quota share under Workload 1."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_quota")
    base = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    specs = [
        RunSpec(
            topology=p["topology_name"],
            workload="workload1",
            config=replace(base, reserved_quota_share=share),
            cycles=p["cycles"],
        )
        for share in p["shares"]
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        {
            "share": share,
            # PvcPolicy.bind sizes the quota as share * frame_cycles;
            # the shares here are explicit, so reproduce it directly.
            "quota_flits": share * spec.config.frame_cycles,
            "preemption_events": result.preemption_events,
            "wasted_hop_fraction": result.wasted_hop_fraction,
            "delivered_flits": result.delivered_flits,
        }
        for share, spec, result in zip(p["shares"], specs, batch.results)
    ]


def format_rows(rows: list[dict]) -> str:
    """Render the quota sweep."""
    return format_columns(
        rows,
        {
            "quota share": ("share", "{:.4f}".format),
            "quota (flits)": "quota_flits",
            "preemptions": "preemption_events",
            "wasted hops (%)": ("wasted_hop_fraction", percent),
            "delivered": "delivered_flits",
        },
        title="Ablation: reserved quota vs adversarial preemption (Workload 1)",
        float_format=".1f",
    )
