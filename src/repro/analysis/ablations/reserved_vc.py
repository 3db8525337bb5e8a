"""Ablation: the reserved VC for rate-compliant traffic.

Table 1 reserves one VC at each network port for traffic within its
provisioned rate, giving well-behaved flows a path that adversarial
backlog cannot squat on.  This ablation runs the Table 2 hotspot (all
sources compliant) and Workload 1 (all sources over-rate) with the
reservation on and off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.analysis.fairness import fairness_report
from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "topology_name": "dps",
    "cycles": 15_000,
    "frame_cycles": 10_000,
}


@dataclass(frozen=True)
class ReservedVcPoint:
    """One (workload, reserved?) cell of the ablation."""

    workload: str
    reserved: bool
    preemption_events: int
    fairness_std: float
    delivered_flits: int


def run_reserved_vc_ablation(
    *,
    topology_name: str = "dps",
    cycles: int = 15_000,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[ReservedVcPoint]:
    """Hotspot + Workload 1, reserved VC on/off."""
    base = config or SimulationConfig(frame_cycles=10_000, seed=1)
    cells = [
        (workload_name, rate, reserved)
        for workload_name, rate in (("hotspot64", 0.05), ("workload1", None))
        for reserved in (True, False)
    ]
    specs = [
        RunSpec(
            topology=topology_name,
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
    points = []
    for (workload_name, _, reserved), result in zip(cells, batch.results):
        report = fairness_report(list(result.window_flits_per_flow))
        points.append(
            ReservedVcPoint(
                workload=workload_name,
                reserved=reserved,
                preemption_events=result.preemption_events,
                fairness_std=report.std_relative,
                delivered_flits=result.delivered_flits,
            )
        )
    return points


def summary_rows(points: list[ReservedVcPoint]) -> list[dict]:
    """One plain row per (workload, reserved?) cell."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_reserved_vc")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_reserved_vc_ablation(**p, config=config, executor=executor, cache=cache)
    )


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
