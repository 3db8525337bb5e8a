"""Built-in campaigns: the full-paper reproduction and its CI smoke twin.

``paper`` covers every simulated and analytical result the repository
reproduces — Figures 3–7, Table 2, the Section 5.2 saturation study,
all seven design-choice ablations, and the bursty-traffic and PVC-vs-GSF
extensions.  ``smoke`` runs the *same stage graph* (names, kinds,
dependencies, sharding axes) at tiny budgets and a two-topology subset,
sized for a CI job.  These stage params are the only budgets: ``repro
<target>`` runs a kind with its ``paper`` stage's params, and with its
``smoke`` stage's under ``--fast``.

Dependency edges encode "validate the paper result before its
offshoots": the slowdown study (fig6) builds on the preemption study
(fig5), the ablations depend on the figure whose mechanism they
ablate, and the bursty extension follows the saturation study whose
regime it stresses.  Sharding splits the widest sweeps along their
``topology_names`` axis so an interrupted campaign loses at most one
shard of progress.
"""

from __future__ import annotations

from repro.campaign.spec import CampaignSpec, StageSpec
from repro.errors import CampaignError

_MESHES = ["mesh_x1", "mesh_x2", "mesh_x4"]
_POINT_TO_POINT = ["mecs", "dps"]
_SMOKE_TOPOLOGIES = ["mesh_x1", "mecs"]

PAPER_CAMPAIGN = CampaignSpec(
    name="paper",
    description="full conf_isca_GrotKM10 reproduction: fig3-fig7, table2, "
    "saturation, 7 ablations, burst-fairness + PVC-vs-GSF extensions",
    stages=(
        StageSpec("fig3", "fig3"),
        StageSpec("fig7", "fig7"),
        StageSpec(
            "fig4",
            "fig4",
            params={"cycles": 4000, "warmup": 1000},
            shards=(
                {"topology_names": _MESHES},
                {"topology_names": _POINT_TO_POINT},
            ),
        ),
        StageSpec(
            "table2",
            "table2",
            params={"window": 25_000, "warmup": 3125},
            shards=(
                {"topology_names": _MESHES},
                {"topology_names": _POINT_TO_POINT},
            ),
        ),
        StageSpec(
            "fig5",
            "fig5",
            params={"cycles": 25_000},
            shards=(
                {"topology_names": _MESHES},
                {"topology_names": _POINT_TO_POINT},
            ),
        ),
        StageSpec(
            "fig6",
            "fig6",
            params={"duration": 10_000, "window": 15_000, "warmup": 2000},
            depends_on=("fig5",),
            shards=(
                {"topology_names": _MESHES},
                {"topology_names": _POINT_TO_POINT},
            ),
        ),
        StageSpec("saturation", "saturation", params={"cycles": 8000}),
        StageSpec(
            "burst_fairness",
            "burst_fairness",
            params={"window": 6000, "warmup": 1500},
            depends_on=("saturation",),
        ),
        StageSpec(
            "pvc_vs_gsf",
            "pvc_vs_gsf",
            params={"window": 6000, "warmup": 1000},
            depends_on=("saturation",),
        ),
        StageSpec("ablation_quota", "ablation_quota", depends_on=("fig5",)),
        StageSpec(
            "ablation_reserved_vc", "ablation_reserved_vc", depends_on=("fig5",)
        ),
        StageSpec("ablation_patience", "ablation_patience", depends_on=("fig5",)),
        StageSpec("ablation_frame", "ablation_frame", depends_on=("table2",)),
        StageSpec("ablation_window", "ablation_window", depends_on=("saturation",)),
        StageSpec("ablation_replica", "ablation_replica", depends_on=("fig5",)),
        StageSpec("ablation_fbfly", "ablation_fbfly", depends_on=("fig4",)),
    ),
)

SMOKE_CAMPAIGN = CampaignSpec(
    name="smoke",
    description="CI-sized twin of the paper campaign: same stage graph, "
    "tiny budgets, two topologies",
    stages=(
        StageSpec("fig3", "fig3"),
        StageSpec("fig7", "fig7"),
        StageSpec(
            "fig4",
            "fig4",
            params={
                "rates": [0.02, 0.08],
                "cycles": 600,
                "warmup": 150,
                "topology_names": _SMOKE_TOPOLOGIES,
            },
            shards=(
                {"topology_names": ["mesh_x1"]},
                {"topology_names": ["mecs"]},
            ),
        ),
        StageSpec(
            "table2",
            "table2",
            params={
                "window": 1500,
                "warmup": 300,
                "topology_names": _SMOKE_TOPOLOGIES,
            },
        ),
        StageSpec(
            "fig5",
            "fig5",
            params={"cycles": 2500, "topology_names": _SMOKE_TOPOLOGIES},
        ),
        StageSpec(
            "fig6",
            "fig6",
            params={
                "duration": 600,
                "window": 1200,
                "warmup": 200,
                "topology_names": _SMOKE_TOPOLOGIES,
            },
            depends_on=("fig5",),
        ),
        StageSpec(
            "saturation",
            "saturation",
            params={"cycles": 700, "topology_names": _SMOKE_TOPOLOGIES},
        ),
        StageSpec(
            "burst_fairness",
            "burst_fairness",
            params={"window": 1200, "warmup": 300},
            depends_on=("saturation",),
        ),
        StageSpec(
            "pvc_vs_gsf",
            "pvc_vs_gsf",
            params={"window": 1500, "warmup": 300, "frame_cycles": 250},
            depends_on=("saturation",),
        ),
        StageSpec(
            "ablation_quota",
            "ablation_quota",
            params={"cycles": 1500, "shares": [0.0, 1.0 / 64, 1.0]},
            depends_on=("fig5",),
        ),
        StageSpec(
            "ablation_reserved_vc",
            "ablation_reserved_vc",
            params={"cycles": 1200},
            depends_on=("fig5",),
        ),
        StageSpec(
            "ablation_patience",
            "ablation_patience",
            params={"cycles": 1500, "patience_values": [0, 8, 64]},
            depends_on=("fig5",),
        ),
        StageSpec(
            "ablation_frame",
            "ablation_frame",
            params={"frames": [2000, 5000], "window": 1500},
            depends_on=("table2",),
        ),
        StageSpec(
            "ablation_window",
            "ablation_window",
            params={"windows": [1, 4, 16], "cycles": 1200},
            depends_on=("saturation",),
        ),
        StageSpec(
            "ablation_replica",
            "ablation_replica",
            params={"replications": [2], "cycles": 1200},
            depends_on=("fig5",),
        ),
        StageSpec(
            "ablation_fbfly",
            "ablation_fbfly",
            params={"cycles": 800},
            depends_on=("fig4",),
        ),
    ),
)

#: Registry consulted by the CLI and the public API.
CAMPAIGNS: dict[str, CampaignSpec] = {
    PAPER_CAMPAIGN.name: PAPER_CAMPAIGN,
    SMOKE_CAMPAIGN.name: SMOKE_CAMPAIGN,
}


def get_campaign(name: str) -> CampaignSpec:
    """Registered campaign by name; raises :class:`CampaignError`."""
    campaign = CAMPAIGNS.get(name)
    if campaign is None:
        raise CampaignError(
            f"unknown campaign {name!r}; expected one of {sorted(CAMPAIGNS)}"
        )
    return campaign
