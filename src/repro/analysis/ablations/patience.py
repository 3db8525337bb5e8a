"""Ablation: the preemption-patience window (inversion detection).

PVC "detects priority inversion situations and resolves them through
preemption"; the paper does not specify how long a conflict must
persist before it counts as an inversion.  This reproduction requires a
blocked candidate to wait ``preemption_patience_cycles`` before it may
discard a victim.  The sweep shows the stability trade: an impatient
trigger preempts on transient conflicts and thrashes, while an
over-patient one approaches preemption-free behaviour (and its
head-of-line blocking).
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

DEFAULT_PATIENCE: tuple[int, ...] = (0, 4, 8, 16, 32, 64)

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "topology_name": "mesh_x1",
    "patience_values": DEFAULT_PATIENCE,
    "cycles": 20_000,
    "frame_cycles": 10_000,
}


@dataclass(frozen=True)
class PatiencePoint:
    """Outcome of one patience setting under Workload 1."""

    patience: int
    preemption_events: int
    preempted_packet_fraction: float
    wasted_hop_fraction: float
    mean_latency: float


def run_patience_ablation(
    *,
    topology_name: str = "mesh_x1",
    patience_values: tuple[int, ...] = DEFAULT_PATIENCE,
    cycles: int = 20_000,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[PatiencePoint]:
    """Sweep the inversion-detection window under Workload 1."""
    base = config or SimulationConfig(frame_cycles=10_000, seed=1)
    specs = [
        RunSpec(
            topology=topology_name,
            workload="workload1",
            config=replace(base, preemption_patience_cycles=patience),
            cycles=cycles,
            warmup=cycles // 4,
        )
        for patience in patience_values
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        PatiencePoint(
            patience=patience,
            preemption_events=result.preemption_events,
            preempted_packet_fraction=result.preempted_packet_fraction,
            wasted_hop_fraction=result.wasted_hop_fraction,
            mean_latency=result.mean_latency,
        )
        for patience, result in zip(patience_values, batch.results)
    ]


def summary_rows(points: list[PatiencePoint]) -> list[dict]:
    """One plain row per patience setting."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_patience")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_patience_ablation(**p, config=config, executor=executor, cache=cache)
    )


def format_rows(rows: list[dict]) -> str:
    """Render the patience sweep."""
    return format_columns(
        rows,
        {
            "patience (cyc)": "patience",
            "preemptions": "preemption_events",
            "packets (%)": ("preempted_packet_fraction", percent),
            "hops (%)": ("wasted_hop_fraction", percent),
            "latency (cyc)": "mean_latency",
        },
        title="Ablation: preemption patience (inversion detection window)",
        float_format=".1f",
    )
