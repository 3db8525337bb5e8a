"""Stage-kind registry: what each campaign stage *kind* executes.

Every experiment and ablation module exposes a ``stage_rows`` adapter
(``stage_rows(params, *, seed, executor, cache) -> list[dict]``) that
runs the study through the runtime and projects the result onto plain,
comparable summary rows.  This registry maps the campaign-facing kind
names onto those adapters and versions them: bumping an adapter's
``version`` changes every dependent stage hash, invalidating manifests
and baselines recorded against the old row shape.

An adapter's module is imported on its first ``run``; stage hashes read
only this table, so building a campaign runner imports no experiment.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from importlib import import_module

from repro.errors import CampaignError

#: ``stage_rows(params, *, seed, executor, cache) -> list[dict]``.
StageRunner = Callable[..., "list[dict]"]


@dataclass(frozen=True)
class StageAdapter:
    """One executable stage kind."""

    kind: str
    run: StageRunner
    description: str
    version: int = 1
    simulated: bool = True


def _stage_rows(module: str) -> StageRunner:
    """``stage_rows`` of ``repro.analysis.<module>``, imported on first call."""

    def run(*args, **kwargs):
        return import_module(f"repro.analysis.{module}").stage_rows(*args, **kwargs)

    return run


_ADAPTERS: tuple[StageAdapter, ...] = (
    StageAdapter(
        "fig3",
        _stage_rows("experiments.fig3_area"),
        "Figure 3: router area overhead (analytical)",
        simulated=False,
    ),
    StageAdapter(
        "fig4",
        _stage_rows("experiments.fig4_latency"),
        "Figure 4: latency/throughput, uniform + tornado",
    ),
    StageAdapter(
        "table2",
        _stage_rows("experiments.table2_fairness"),
        "Table 2: hotspot throughput fairness",
    ),
    StageAdapter(
        "fig5",
        _stage_rows("experiments.fig5_preemption"),
        "Figure 5: adversarial preemption rates",
    ),
    StageAdapter(
        "fig6",
        _stage_rows("experiments.fig6_slowdown"),
        "Figure 6: slowdown + max-min deviation",
    ),
    StageAdapter(
        "fig7",
        _stage_rows("experiments.fig7_energy"),
        "Figure 7: router energy per flit (analytical)",
        simulated=False,
    ),
    StageAdapter(
        "saturation",
        _stage_rows("experiments.saturation"),
        "Section 5.2: saturation replay rates",
    ),
    StageAdapter(
        "burst_fairness",
        _stage_rows("experiments.burst_fairness"),
        "extension: QoS under bursty/replayed traffic",
    ),
    StageAdapter(
        "pvc_vs_gsf",
        _stage_rows("experiments.pvc_vs_gsf"),
        "extension: PVC vs GSF head-to-head (fairness, throttling cost)",
    ),
    StageAdapter(
        "ablation_quota",
        _stage_rows("ablations.quota"),
        "ablation: reserved per-frame quota",
    ),
    StageAdapter(
        "ablation_reserved_vc",
        _stage_rows("ablations.reserved_vc"),
        "ablation: rate-compliant reserved VC",
    ),
    StageAdapter(
        "ablation_patience",
        _stage_rows("ablations.patience"),
        "ablation: preemption patience window",
    ),
    StageAdapter(
        "ablation_frame",
        _stage_rows("ablations.frame"),
        "ablation: PVC frame length",
    ),
    StageAdapter(
        "ablation_window",
        _stage_rows("ablations.window"),
        "ablation: source retransmission window",
    ),
    StageAdapter(
        "ablation_replica",
        _stage_rows("ablations.replica_policy"),
        "ablation: replica arbitration policy",
    ),
    StageAdapter(
        "ablation_fbfly",
        _stage_rows("ablations.topology_extension"),
        "ablation: flattened-butterfly extension",
    ),
)

STAGE_ADAPTERS: dict[str, StageAdapter] = {
    adapter.kind: adapter for adapter in _ADAPTERS
}

#: All registered stage kinds, sorted for display.
STAGE_KINDS: tuple[str, ...] = tuple(sorted(STAGE_ADAPTERS))


def get_adapter(kind: str) -> StageAdapter:
    """Adapter for ``kind``; raises :class:`CampaignError` if unknown."""
    adapter = STAGE_ADAPTERS.get(kind)
    if adapter is None:
        raise CampaignError(
            f"unknown stage kind {kind!r}; expected one of {list(STAGE_KINDS)}"
        )
    return adapter
