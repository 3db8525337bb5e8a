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

from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import TOPOLOGY_NAMES
from repro.util.charts import line_chart
from repro.util.params import resolve_stage_params
from repro.util.tables import format_table

#: The two panels, Figure 4(a) benign and 4(b) adversarial: each row's
#: ``panel`` and the traffic pattern it runs.
_PANELS: tuple[tuple[str, str], ...] = (
    ("uniform", "uniform_random"),
    ("tornado", "tornado"),
)

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    # Swept injection rates (flits/cycle per injector).
    "rates": (0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13),
    "cycles": 5000,
    "warmup": 1500,
    "frame_cycles": 10_000,
    "topology_names": TOPOLOGY_NAMES,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (panel, topology, rate), both panels in one batch."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig4")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cells = [
        (panel, pattern, name, rate)
        for panel, pattern in _PANELS
        for name in p["topology_names"]
        for rate in p["rates"]
    ]
    specs = [
        RunSpec(
            topology=name,
            workload="full_column",
            rate=rate,
            workload_params={"pattern": pattern},
            config=config,
            cycles=p["cycles"],
            warmup=p["warmup"],
        )
        for _, pattern, name, rate in cells
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    return [
        {
            "panel": panel,
            "topology": name,
            "rate": rate,
            "mean_latency": result.mean_latency,
            "delivered_flits": result.delivered_flits,
            "accepted_ratio": result.accepted_ratio,
            "preemption_events": result.preemption_events,
        }
        for (panel, _, name, rate), result in zip(cells, batch.results)
    ]


def _curves(rows: list[dict], panel: str) -> dict[str, list[tuple[float, float]]]:
    """``{topology: [(rate, mean latency), ...]}`` of one panel's rows."""
    curves: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row["panel"] == panel:
            curves.setdefault(row["topology"], []).append(
                (row["rate"], row["mean_latency"])
            )
    return curves


def format_rows(rows: list[dict], *, chart: bool = False) -> str:
    """Render both panels (average packet latency in cycles); ``chart``
    adds an ASCII chart of the uniform panel."""
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
    if chart:
        tables.append(line_chart(
            {
                name: [(rate * 100, latency) for rate, latency in points]
                for name, points in _curves(rows, "uniform").items()
            },
            title="uniform random: latency (cyc) vs injection (%)",
            y_cap=120.0,
        ))
    return "\n\n".join(tables)
