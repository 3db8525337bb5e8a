"""Extension study: the flattened butterfly the paper names but skips.

Compares fbfly against MECS and DPS on the paper's axes — latency under
both synthetic patterns, router area, and 3-hop energy — answering the
question Section 2.2 leaves open: does full connectivity buy anything
over MECS's shared point-to-multipoint channels inside the shared
column?
"""

from __future__ import annotations

from repro.models.area import RouterAreaModel
from repro.models.energy import RouterEnergyModel
from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.topologies.registry import get_topology
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "low_rate": 0.03,
    "high_rate": 0.12,
    "cycles": 4000,
    "frame_cycles": 10_000,
}

_TOPOLOGIES: tuple[str, ...] = ("mecs", "dps", "fbfly")


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per studied topology: latency at low and high load plus
    analytical area and 3-hop energy."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "ablation_fbfly")
    base = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    cycles = p["cycles"]
    area_model = RouterAreaModel()
    energy_model = RouterEnergyModel()
    load_points = (
        ("uniform_random", p["low_rate"]),
        ("tornado", p["low_rate"]),
        ("tornado", p["high_rate"]),
    )
    specs = [
        RunSpec(
            topology=name,
            workload="full_column",
            rate=rate,
            workload_params={"pattern": pattern},
            config=base,
            cycles=cycles,
            warmup=cycles // 4,
        )
        for name in _TOPOLOGIES
        for pattern, rate in load_points
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    rows = []
    for index, name in enumerate(_TOPOLOGIES):
        uniform, tornado_low, tornado_high = batch.results[
            3 * index : 3 * index + 3
        ]
        geometry = get_topology(name).geometry()
        single_hop = name in ("mecs", "fbfly")
        rows.append(
            {
                "topology": name,
                "uniform_latency": uniform.mean_latency,
                "tornado_latency": tornado_low.mean_latency,
                "saturated_tornado_latency": tornado_high.mean_latency,
                "router_area_mm2": area_model.breakdown(geometry).total_mm2,
                "three_hop_energy_pj": energy_model.route_energy(
                    geometry, 3, single_hop_reach=single_hop
                ).total_pj,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render the flattened-butterfly extension study."""
    return format_columns(
        rows,
        {
            "topology": "topology",
            "uniform lat": "uniform_latency",
            "tornado lat": "tornado_latency",
            "tornado lat @12%": "saturated_tornado_latency",
            "area (mm^2)": "router_area_mm2",
            "3-hop pJ": "three_hop_energy_pj",
        },
        title="Extension: flattened butterfly vs MECS vs DPS",
        float_format=".2f",
    )
