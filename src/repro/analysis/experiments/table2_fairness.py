"""Table 2 — relative throughput fairness under hotspot traffic.

All 64 injectors (terminal plus row inputs at each of the 8 routers)
stream traffic to the terminal port of node 0 with equal weights; PVC
should hand each an equal share of the one-flit-per-cycle ejection port.
The table reports each topology's mean per-source throughput and the
min/max/standard deviation as percentages of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.fairness import FairnessReport, fairness_report
from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "rate": 0.05,
    "warmup": 3000,
    "window": 20_000,
    "frame_cycles": 50_000,
    "topology_names": TOPOLOGY_NAMES,
}


@dataclass(frozen=True)
class Table2Row:
    """One topology's fairness result."""

    topology: str
    report: FairnessReport
    preemption_events: int


def run_table2(
    *,
    rate: float = 0.05,
    warmup: int = 3000,
    window: int = 20_000,
    topology_names: tuple[str, ...] = TOPOLOGY_NAMES,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[Table2Row]:
    """Run the hotspot fairness experiment for every topology.

    The paper measures ~4,190 flits per flow (a ~270K-cycle window);
    the default window here is scaled down for wall-clock reasons and
    can be raised to paper scale via ``window``.
    """
    config = config or SimulationConfig(frame_cycles=50_000)
    specs = [
        RunSpec(
            topology=name,
            workload="hotspot64",
            rate=rate,
            config=config,
            mode="window",
            cycles=window,
            warmup=warmup,
        )
        for name in topology_names
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        Table2Row(
            topology=name,
            report=fairness_report(list(result.window_flits_per_flow)),
            preemption_events=result.preemption_events,
        )
        for name, result in zip(topology_names, batch.results)
    ]


def summary_rows(rows: list[Table2Row]) -> list[dict]:
    """One plain fairness summary row per topology."""
    return [
        {
            "topology": row.topology,
            "mean_flits": row.report.mean_flits,
            "min_relative": row.report.min_relative,
            "max_relative": row.report.max_relative,
            "std_relative": row.report.std_relative,
            "preemption_events": row.preemption_events,
        }
        for row in rows
    ]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "table2")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_table2(**p, config=config, executor=executor, cache=cache)
    )


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
