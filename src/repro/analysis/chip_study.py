"""Chip-level design study: how many shared columns, and where?

The paper evaluates a single shared column in the middle of the grid.
The architecture generalises to "one or more dedicated columns"
(Section 2.2); this study quantifies the trade as columns are added or
moved:

* **access distance** — mean row distance from a compute node to its
  nearest shared column (the MECS hop is single-hop regardless, but
  wire/energy cost scales with tiles spanned);
* **compute capacity** — tiles given up to shared resources;
* **column load** — compute nodes per shared-column router, a proxy for
  contention inside each QoS region;
* **isolation** — verified for a representative multi-VM layout on
  every configuration (the property must hold regardless of placement).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.allocator import DomainAllocator
from repro.core.chip import Chip, ChipConfig
from repro.core.isolation import audit_chip
from repro.errors import AllocationError
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns

#: Configurations studied: the paper's middle column, edge placement,
#: and one/two/three-column variants.
DEFAULT_LAYOUTS: tuple[tuple[int, ...], ...] = (
    (4,),
    (0,),
    (7,),
    (2, 5),
    (0, 7),
    (1, 4, 6),
)

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {"layouts": DEFAULT_LAYOUTS}


@dataclass(frozen=True)
class ColumnLayoutPoint:
    """Metrics of one shared-column placement."""

    columns: tuple[int, ...]
    mean_access_distance: float
    max_access_distance: int
    compute_tiles: int
    compute_nodes_per_shared_router: float
    isolation_violations: int


def _access_distances(chip: Chip) -> list[int]:
    return [
        abs(node[0] - chip.nearest_shared_column(node))
        for node in chip.compute_nodes()
    ]


def _isolation_violations(chip: Chip) -> int:
    """Place a representative three-VM layout and audit it."""
    allocator = DomainAllocator(chip)
    for name, size in (("a", 6), ("b", 6), ("c", 4)):
        try:
            allocator.allocate(name, size)
        except AllocationError:
            # Extremely constrained layouts may not fit all three VMs;
            # audit whatever was placed.
            break
    return len(audit_chip(chip, allocator.domains))


def run_chip_study(
    layouts: tuple[tuple[int, ...], ...] = DEFAULT_LAYOUTS,
) -> list[ColumnLayoutPoint]:
    """Evaluate each shared-column layout on an 8x8 chip."""
    points = []
    for columns in layouts:
        chip = Chip(ChipConfig(shared_columns=columns))
        distances = _access_distances(chip)
        compute_nodes = len(chip.compute_nodes())
        shared_routers = len(chip.shared_nodes())
        points.append(
            ColumnLayoutPoint(
                columns=columns,
                mean_access_distance=sum(distances) / len(distances),
                max_access_distance=max(distances),
                compute_tiles=compute_nodes * chip.config.concentration,
                compute_nodes_per_shared_router=compute_nodes / shared_routers,
                isolation_violations=_isolation_violations(chip),
            )
        )
    return points


def summary_rows(points: list[ColumnLayoutPoint]) -> list[dict]:
    """One plain row per shared-column layout (``columns`` as a list, as JSON
    reads it back)."""
    return [{**asdict(point), "columns": list(point.columns)} for point in points]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`.

    Analytical — ``seed``/``executor``/``cache`` are accepted for
    signature uniformity with the simulation-backed stages and ignored.
    """
    del seed, executor, cache
    p = resolve_stage_params(params, STAGE_DEFAULTS, "chip")
    return summary_rows(run_chip_study(**p))


def format_rows(rows: list[dict]) -> str:
    """Render the placement study."""
    return format_columns(
        rows,
        {
            "shared columns": ("columns", str),
            "mean dist": "mean_access_distance",
            "max dist": "max_access_distance",
            "compute tiles": "compute_tiles",
            "nodes/router": "compute_nodes_per_shared_router",
            "violations": "isolation_violations",
        },
        title="Chip study: shared-column count and placement",
        float_format=".2f",
    )
