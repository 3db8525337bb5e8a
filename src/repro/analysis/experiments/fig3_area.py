"""Figure 3 — router area overhead of the shared-region topologies.

Stacks input buffers, crossbar, and PVC flow state per router, plus the
row-input buffer capacity common to all topologies (the figure's dotted
line).  Purely analytical: no simulation required.
"""

from __future__ import annotations

from repro.models.area import RouterAreaModel
from repro.topologies.registry import TOPOLOGY_NAMES, get_topology
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: The study's budget; a campaign stage's params override it.
STAGE_DEFAULTS = {"topology_names": TOPOLOGY_NAMES}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per topology, in Figure 3's order (mm^2 per router).

    Analytical — ``seed``/``executor``/``cache`` are accepted for
    signature uniformity with the simulation-backed stages and ignored.
    """
    del seed, executor, cache
    p = resolve_stage_params(params, STAGE_DEFAULTS, "fig3")
    model = RouterAreaModel()
    rows = []
    for name in p["topology_names"]:
        breakdown = model.breakdown(get_topology(name).geometry())
        rows.append(
            {
                "topology": name,
                "buffers_mm2": breakdown.buffers_mm2,
                "crossbar_mm2": breakdown.crossbar_mm2,
                "flow_state_mm2": breakdown.flow_state_mm2,
                "total_mm2": breakdown.total_mm2,
                "row_buffers_mm2": breakdown.row_buffers_mm2,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render Figure 3 from :func:`stage_rows` rows (mm^2 per router)."""
    table = format_columns(
        rows,
        {
            "topology": "topology",
            "buffers": "buffers_mm2",
            "crossbar": "crossbar_mm2",
            "flow state": "flow_state_mm2",
            "total": "total_mm2",
        },
        title="Figure 3: router area overhead (mm^2)",
        float_format=".4f",
    )
    dotted = rows[0]["row_buffers_mm2"]
    return f"{table}\nrow-input buffer capacity (common): {dotted:.4f} mm^2"
