"""Ablation: the reserved per-frame quota (PVC's main preemption throttle).

The quota makes a source's first N flits per frame non-preemptable,
with N sized for the provisioned injector population.  Sweeping the
quota share under Workload 1 shows the trade: a zero quota exposes
every packet to preemption; a full-frame quota suppresses preemption
entirely (and with it PVC's ability to fix inversions quickly).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

DEFAULT_SHARES: tuple[float, ...] = (0.0, 1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0)

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "topology_name": "mesh_x1",
    "shares": DEFAULT_SHARES,
    "cycles": 20_000,
    "frame_cycles": 10_000,
}


@dataclass(frozen=True)
class QuotaPoint:
    """Outcome of one quota setting under Workload 1."""

    share: float
    quota_flits: float
    preemption_events: int
    wasted_hop_fraction: float
    delivered_flits: int


def run_quota_ablation(
    *,
    topology_name: str = "mesh_x1",
    shares: tuple[float, ...] = DEFAULT_SHARES,
    cycles: int = 20_000,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[QuotaPoint]:
    """Sweep the reserved quota share under Workload 1."""
    base = config or SimulationConfig(frame_cycles=10_000, seed=1)
    specs = [
        RunSpec(
            topology=topology_name,
            workload="workload1",
            config=replace(base, reserved_quota_share=share),
            cycles=cycles,
        )
        for share in shares
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        QuotaPoint(
            share=share,
            # PvcPolicy.bind sizes the quota as share * frame_cycles;
            # the shares here are explicit, so reproduce it directly.
            quota_flits=share * spec.config.frame_cycles,
            preemption_events=result.preemption_events,
            wasted_hop_fraction=result.wasted_hop_fraction,
            delivered_flits=result.delivered_flits,
        )
        for share, spec, result in zip(shares, specs, batch.results)
    ]


def summary_rows(points: list[QuotaPoint]) -> list[dict]:
    """One plain row per quota share."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_quota")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_quota_ablation(**p, config=config, executor=executor, cache=cache)
    )


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
