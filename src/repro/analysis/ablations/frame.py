"""Ablation: PVC frame length.

The frame bounds how long past bandwidth consumption depresses a flow's
priority — "its duration determines the granularity of the scheme's
guarantees".  Short frames forgive quickly (coarse guarantees, frequent
quota refills); long frames track precisely but expose more
quota-exhausted traffic to preemption in adversarial settings.
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
    "frames": (2_000, 5_000, 10_000, 25_000, 50_000),
    "window": 12_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per frame length: hotspot fairness and Workload 1
    preemptions."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_frame")
    base = SimulationConfig(seed=seed)
    window = p["window"]
    specs = []
    for frame in p["frames"]:
        cfg = replace(base, frame_cycles=frame)
        specs.append(
            RunSpec(
                topology=p["topology_name"],
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
                topology=p["topology_name"],
                workload="workload1",
                config=cfg,
                cycles=window,
            )
        )
    batch = run_batch(specs, executor=executor, cache=cache)
    rows = []
    for index, frame in enumerate(p["frames"]):
        fair, adv = batch.results[2 * index : 2 * index + 2]
        report = fairness_report(list(fair.window_flits_per_flow))
        rows.append(
            {
                "frame_cycles": frame,
                "fairness_std": report.std_relative,
                "max_deviation": report.max_deviation,
                "adversarial_preemptions": adv.preemption_events,
            }
        )
    return rows


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
