"""Ablation: the reserved VC for rate-compliant traffic.

Table 1 reserves one VC at each network port for traffic within its
provisioned rate, giving well-behaved flows a path that adversarial
backlog cannot squat on.  This ablation runs the Table 2 hotspot (all
sources compliant) and Workload 1 (all sources over-rate) with the
reservation on and off.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.fairness import fairness_report
from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "topology_name": "dps",
    "cycles": 15_000,
    "frame_cycles": 10_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (workload, reserved?) cell: hotspot + Workload 1,
    reserved VC on/off."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_reserved_vc")
    base = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cycles = p["cycles"]
    cells = [
        (workload_name, rate, reserved)
        for workload_name, rate in (("hotspot64", 0.05), ("workload1", None))
        for reserved in (True, False)
    ]
    specs = [
        RunSpec(
            topology=p["topology_name"],
            workload=workload_name,
            rate=rate,
            config=replace(base, reserved_vc=reserved),
            mode="window",
            cycles=cycles,
            warmup=cycles // 3,
        )
        for workload_name, rate, reserved in cells
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    rows = []
    for (workload_name, _, reserved), result in zip(cells, batch.results):
        report = fairness_report(list(result.window_flits_per_flow))
        rows.append(
            {
                "workload": workload_name,
                "reserved": reserved,
                "preemption_events": result.preemption_events,
                "fairness_std": report.std_relative,
                "delivered_flits": result.delivered_flits,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render the reserved-VC ablation."""
    return format_columns(
        rows,
        {
            "workload": "workload",
            "reserved VC": ("reserved", lambda reserved: "on" if reserved else "off"),
            "preemptions": "preemption_events",
            "fairness std (%)": ("fairness_std", percent),
            "delivered": "delivered_flits",
        },
        title="Ablation: reserved VC for rate-compliant traffic",
        float_format=".2f",
    )
