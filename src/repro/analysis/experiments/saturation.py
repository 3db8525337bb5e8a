"""Section 5.2 — packet discard (preemption) rates in saturation.

The paper reports, for saturated uniform-random traffic, that the
baseline mesh replays nearly 7% of packets, MECS just 0.04%, and
mesh x2 / mesh x4 / DPS replay 5% / 0.1% / 2%; tornado generates fewer
preemptions for every topology, and topologies with greater channel
resources show better immunity.
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

#: Per-injector rate that saturates every topology (64 injectors).
SATURATION_RATE = 0.15

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "rate": SATURATION_RATE,
    "cycles": 8000,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


@dataclass(frozen=True)
class SaturationPoint:
    """Preemption behaviour of one topology in saturation."""

    topology: str
    pattern: str
    replayed_packet_fraction: float
    preemption_events: int
    delivered_flits: int


def run_saturation(
    *,
    rate: float = SATURATION_RATE,
    cycles: int = 8000,
    topology_names: tuple[str, ...] = TOPOLOGY_NAMES,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[SaturationPoint]:
    """Measure saturation preemption rates on both patterns."""
    config = config or SimulationConfig(frame_cycles=10_000)
    cells = [
        (label, pattern, name)
        for label, pattern in (("uniform", "uniform_random"), ("tornado", "tornado"))
        for name in topology_names
    ]
    specs = [
        RunSpec(
            topology=name,
            workload="full_column",
            rate=rate,
            workload_params={"pattern": pattern},
            config=config,
            cycles=cycles,
        )
        for _, pattern, name in cells
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        SaturationPoint(
            topology=name,
            pattern=label,
            replayed_packet_fraction=result.preempted_packet_fraction,
            preemption_events=result.preemption_events,
            delivered_flits=result.delivered_flits,
        )
        for (label, _, name), result in zip(cells, batch.results)
    ]


def summary_rows(points: list[SaturationPoint]) -> list[dict]:
    """One plain row per (pattern, topology)."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "saturation")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_saturation(**p, config=config, executor=executor, cache=cache)
    )


def format_rows(rows: list[dict]) -> str:
    """Render the Section 5.2 saturation statistics."""
    return format_columns(
        rows,
        {
            "pattern": "pattern",
            "topology": "topology",
            "replayed pkts (%)": ("replayed_packet_fraction", percent),
            "events": "preemption_events",
            "delivered flits": "delivered_flits",
        },
        title="Section 5.2: preemption rates in saturation",
        float_format=".2f",
    )
