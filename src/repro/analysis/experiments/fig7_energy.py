"""Figure 7 — router energy per flit by hop type.

For each topology: energy at a source hop, an intermediate hop, a
destination hop, and the 3-hop composite route (the average
communication distance under random traffic).  MECS crosses any
distance with just two router traversals; DPS pays only a buffer and a
2:1 mux at intermediate hops.  Purely analytical (see
:mod:`repro.models.energy`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.energy import EnergyBreakdown, HopType, RouterEnergyModel
from repro.models.technology import DEFAULT_TECHNOLOGY, TechnologyParameters
from repro.topologies.registry import TOPOLOGY_NAMES, get_topology
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: Figure 7's composite route length in hops.
COMPOSITE_HOPS = 3

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {"topology_names": TOPOLOGY_NAMES}


@dataclass(frozen=True)
class Fig7Row:
    """Per-hop-type energy for one topology."""

    topology: str
    source: EnergyBreakdown
    intermediate: EnergyBreakdown
    destination: EnergyBreakdown
    three_hops: EnergyBreakdown


def run_fig7(
    technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
    topology_names: tuple[str, ...] = TOPOLOGY_NAMES,
) -> list[Fig7Row]:
    """Energy breakdown per topology, in Figure 7's order."""
    model = RouterEnergyModel(technology)
    rows = []
    for name in topology_names:
        geometry = get_topology(name).geometry()
        single_hop = name == "mecs"
        rows.append(
            Fig7Row(
                topology=name,
                source=model.hop_energy(geometry, HopType.SOURCE),
                intermediate=model.hop_energy(geometry, HopType.INTERMEDIATE),
                destination=model.hop_energy(geometry, HopType.DESTINATION),
                three_hops=model.route_energy(
                    geometry, COMPOSITE_HOPS, single_hop_reach=single_hop
                ),
            )
        )
    return rows


def summary_rows(rows: list[Fig7Row]) -> list[dict]:
    """One plain row per (topology, hop type)."""
    summary = []
    for row in rows:
        for hop_name, energy in (
            ("source", row.source),
            ("intermediate", row.intermediate),
            ("destination", row.destination),
            ("three_hops", row.three_hops),
        ):
            summary.append(
                {
                    "topology": row.topology,
                    "hop": hop_name,
                    "buffers_pj": energy.buffers_pj,
                    "crossbar_pj": energy.crossbar_pj,
                    "flow_table_pj": energy.flow_table_pj,
                    "total_pj": energy.total_pj,
                }
            )
    return summary


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`.

    Analytical — ``seed``/``executor``/``cache`` are accepted for
    signature uniformity with the simulation-backed stages and ignored.
    """
    del seed, executor, cache
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig7")
    return summary_rows(run_fig7(**p))


#: Figure 7's label for each row's ``hop``.
_HOP_LABELS = {
    "source": "src",
    "intermediate": "intermediate",
    "destination": "dest",
    "three_hops": "3 hops",
}


def format_rows(rows: list[dict]) -> str:
    """Render Figure 7 (buffers / crossbar / flow table stacked totals)."""
    return format_columns(
        rows,
        {
            "topology": "topology",
            "hop": ("hop", _HOP_LABELS.get),
            "buffers": "buffers_pj",
            "xbar": "crossbar_pj",
            "flow table": "flow_table_pj",
            "total (pJ/flit)": "total_pj",
        },
        title="Figure 7: router energy per flit",
        float_format=".2f",
    )
