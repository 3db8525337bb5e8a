"""Ablation: PVC frame length.

The frame bounds how long past bandwidth consumption depresses a flow's
priority — "its duration determines the granularity of the scheme's
guarantees".  Short frames forgive quickly (coarse guarantees, frequent
quota refills); long frames track precisely but expose more
quota-exhausted traffic to preemption in adversarial settings.
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

DEFAULT_FRAMES: tuple[int, ...] = (2_000, 5_000, 10_000, 25_000, 50_000)

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "topology_name": "dps",
    "frames": DEFAULT_FRAMES,
    "window": 12_000,
}


@dataclass(frozen=True)
class FramePoint:
    """Outcome of one frame length."""

    frame_cycles: int
    fairness_std: float
    max_deviation: float
    adversarial_preemptions: int


def run_frame_ablation(
    *,
    topology_name: str = "dps",
    frames: tuple[int, ...] = DEFAULT_FRAMES,
    window: int = 12_000,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[FramePoint]:
    """Measure fairness (hotspot) and preemption (Workload 1) per frame."""
    base = config or SimulationConfig(seed=1)
    specs = []
    for frame in frames:
        cfg = replace(base, frame_cycles=frame)
        specs.append(
            RunSpec(
                topology=topology_name,
                workload="hotspot64",
                rate=0.05,
                config=cfg,
                mode="window",
                cycles=window,
                warmup=window // 4,
            )
        )
        specs.append(
            RunSpec(
                topology=topology_name,
                workload="workload1",
                config=cfg,
                cycles=window,
            )
        )
    batch = run_batch(specs, executor=executor, cache=cache)
    points = []
    for index, frame in enumerate(frames):
        fair, adv = batch.results[2 * index : 2 * index + 2]
        report = fairness_report(list(fair.window_flits_per_flow))
        points.append(
            FramePoint(
                frame_cycles=frame,
                fairness_std=report.std_relative,
                max_deviation=report.max_deviation,
                adversarial_preemptions=adv.preemption_events,
            )
        )
    return points


def summary_rows(points: list[FramePoint]) -> list[dict]:
    """One plain row per frame length."""
    return [asdict(point) for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_frame")
    config = SimulationConfig(seed=seed)
    return summary_rows(
        run_frame_ablation(**p, config=config, executor=executor, cache=cache)
    )


def format_rows(rows: list[dict]) -> str:
    """Render the frame-length sweep."""
    return format_columns(
        rows,
        {
            "frame (cyc)": "frame_cycles",
            "hotspot std (%)": ("fairness_std", percent),
            "max dev (%)": ("max_deviation", percent),
            "W1 preemptions": "adversarial_preemptions",
        },
        title="Ablation: PVC frame length",
        float_format=".2f",
    )
