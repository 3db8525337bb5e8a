"""Figure 4 — latency and throughput on synthetic traffic.

Two panels: uniform random (benign) and tornado (adversarial for meshes
— every source concentrates on the node half-way across the dimension).
Every injector at every router is loaded (64 flows), swept over
per-injector injection rates; the curve reports average packet latency.

Both panels for all topologies are submitted to the runtime as one
batch, so a :class:`~repro.runtime.ParallelExecutor` overlaps every
(topology, pattern, rate) point and a :class:`~repro.runtime.ResultCache`
makes repeated sweeps free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sweep import LatencyPoint, point_from_result
from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import RunManifest, run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.util.charts import line_chart
from repro.util.params import resolve_stage_params
from repro.util.tables import format_table

#: Default swept injection rates (flits/cycle per injector).
DEFAULT_RATES: tuple[float, ...] = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13)

#: The two panels: Figure 4(a) benign, Figure 4(b) adversarial.
_PANEL_PATTERNS: tuple[str, ...] = ("uniform_random", "tornado")

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "rates": DEFAULT_RATES,
    "cycles": 5000,
    "warmup": 1500,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


@dataclass(frozen=True)
class Fig4Result:
    """Curves for both panels, keyed by topology name."""

    uniform: dict[str, list[LatencyPoint]]
    tornado: dict[str, list[LatencyPoint]]
    rates: tuple[float, ...]
    manifest: RunManifest | None = None


def run_fig4(
    *,
    rates: tuple[float, ...] = DEFAULT_RATES,
    cycles: int = 5000,
    warmup: int = 1500,
    topology_names: tuple[str, ...] = TOPOLOGY_NAMES,
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> Fig4Result:
    """Run both Figure 4 panels for every topology."""
    config = config or SimulationConfig(frame_cycles=10_000)
    specs = [
        RunSpec(
            topology=name,
            workload="full_column",
            rate=rate,
            workload_params={"pattern": pattern},
            config=config,
            cycles=cycles,
            warmup=warmup,
        )
        for pattern in _PANEL_PATTERNS
        for name in topology_names
        for rate in rates
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    curves: dict[str, dict[str, list[LatencyPoint]]] = {
        pattern: {} for pattern in _PANEL_PATTERNS
    }
    index = 0
    for pattern in _PANEL_PATTERNS:
        for name in topology_names:
            curves[pattern][name] = [
                point_from_result(rate, batch.results[index + offset])
                for offset, rate in enumerate(rates)
            ]
            index += len(rates)
    return Fig4Result(
        uniform=curves["uniform_random"],
        tornado=curves["tornado"],
        rates=rates,
        manifest=batch.manifest,
    )


def summary_rows(result: Fig4Result) -> list[dict]:
    """One plain row per (panel, topology, rate)."""
    rows = []
    for panel, curves in (("uniform", result.uniform), ("tornado", result.tornado)):
        for name, points in curves.items():
            for point in points:
                rows.append(
                    {
                        "panel": panel,
                        "topology": name,
                        "rate": point.rate,
                        "mean_latency": point.mean_latency,
                        "delivered_flits": point.delivered_flits,
                        "accepted_ratio": point.accepted_ratio,
                        "preemption_events": point.preemption_events,
                    }
                )
    return rows


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig4")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_fig4(**p, config=config, executor=executor, cache=cache)
    )


def _curves(rows: list[dict], panel: str) -> dict[str, list[tuple[float, float]]]:
    """``{topology: [(rate, mean latency), ...]}`` of one panel's rows."""
    curves: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row["panel"] == panel:
            curves.setdefault(row["topology"], []).append(
                (row["rate"], row["mean_latency"])
            )
    return curves


def format_rows(rows: list[dict]) -> str:
    """Render both panels (average packet latency in cycles)."""
    tables = []
    for panel, title in (("uniform", "Figure 4(a): uniform random"),
                         ("tornado", "Figure 4(b): tornado")):
        curves = _curves(rows, panel)
        rates = [rate for rate, _ in next(iter(curves.values()), [])]
        tables.append(format_table(
            ["topology"] + [f"{rate:.0%}" for rate in rates],
            [[name] + [latency for _, latency in points]
             for name, points in curves.items()],
            title=title,
            float_format=".1f",
        ))
    return "\n\n".join(tables)


def uniform_chart(rows: list[dict]) -> str:
    """ASCII chart of the uniform panel: latency against injection rate."""
    curves = {
        name: [(rate * 100, latency) for rate, latency in points]
        for name, points in _curves(rows, "uniform").items()
    }
    return line_chart(
        curves, title="uniform random: latency (cyc) vs injection (%)",
        y_cap=120.0,
    )
