"""Table 2 — relative throughput fairness under hotspot traffic.

All 64 injectors (terminal plus row inputs at each of the 8 routers)
stream traffic to the terminal port of node 0 with equal weights; PVC
should hand each an equal share of the one-flit-per-cycle ejection port.
The table reports each topology's mean per-source throughput and the
min/max/standard deviation as percentages of the mean.

The paper measures ~4,190 flits per flow (a ~270K-cycle window); the
default window here is scaled down for wall-clock reasons and can be
raised to paper scale via the ``window`` param.
"""

from __future__ import annotations

from repro.analysis.fairness import fairness_report
from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "rate": 0.05,
    "warmup": 3000,
    "window": 20_000,
    "frame_cycles": 50_000,
    "topology_names": TOPOLOGY_NAMES,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One fairness summary row per topology."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "table2")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    specs = [
        RunSpec(
            topology=name,
            workload="hotspot64",
            rate=p["rate"],
            config=config,
            mode="window",
            cycles=p["window"],
            warmup=p["warmup"],
        )
        for name in p["topology_names"]
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    rows = []
    for name, result in zip(p["topology_names"], batch.results):
        report = fairness_report(list(result.window_flits_per_flow))
        rows.append(
            {
                "topology": name,
                "mean_flits": report.mean_flits,
                "min_relative": report.min_relative,
                "max_relative": report.max_relative,
                "std_relative": report.std_relative,
                "preemption_events": result.preemption_events,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render Table 2: mean flits and min/max/std as % of mean."""
    return format_columns(
        rows,
        {
            "topology": "topology",
            "mean (flits)": "mean_flits",
            "min (% mean)": ("min_relative", "{:.1%}".format),
            "max (% mean)": ("max_relative", "{:.1%}".format),
            "std (% mean)": ("std_relative", "{:.1%}".format),
            "preemptions": "preemption_events",
        },
        title="Table 2: relative throughput of different QOS schemes",
        float_format=".0f",
    )
