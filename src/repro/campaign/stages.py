"""The experiment table: every result this repository reproduces, once.

Each entry is a stage *kind* backed by one module under
``repro.analysis`` that exposes

* ``stage_rows(params, *, seed, executor, cache) -> list[dict]`` — runs
  the study through the runtime and projects the result onto plain,
  comparable summary rows;
* ``format_rows(rows) -> str`` — renders those rows as the paper's table.

Campaign stages name a kind and carry its budgets.  The CLI's experiment
targets are groups of kinds (:data:`TARGETS`); ``repro <target>`` runs
each kind at the budget of the ``paper`` campaign's stage, or the
``smoke`` campaign's under ``--fast``.  Bumping an adapter's ``version``
changes every dependent stage hash, invalidating manifests and baselines
recorded against the old row shape.

A kind's module is imported on the first call to its ``run`` or
``format``; stage hashes read only this table, so building a campaign
runner imports no experiment.
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
    """One stage kind: how to run it, how to render its rows, its target."""

    kind: str
    run: StageRunner
    format: Callable[..., str]
    description: str
    #: The CLI target that runs this kind.
    target: str
    version: int = 1
    #: False for an analytical kind: the CLI gives it no executor or cache.
    simulated: bool = True


def _lazy(module: str, name: str) -> Callable:
    """``repro.analysis.<module>.<name>``, imported on first call."""

    def call(*args, **kwargs):
        function = getattr(import_module(f"repro.analysis.{module}"), name)
        return function(*args, **kwargs)

    return call


def _kind(
    kind: str,
    module: str,
    description: str,
    *,
    target: str | None = None,
    simulated: bool = True,
) -> StageAdapter:
    return StageAdapter(
        kind,
        _lazy(module, "stage_rows"),
        _lazy(module, "format_rows"),
        description,
        target or kind,
        simulated=simulated,
    )


_ADAPTERS: tuple[StageAdapter, ...] = (
    _kind(
        "fig3",
        "experiments.fig3_area",
        "Figure 3: router area overhead (analytical)",
        simulated=False,
    ),
    _kind(
        "fig4",
        "experiments.fig4_latency",
        "Figure 4: latency/throughput, uniform + tornado",
    ),
    _kind(
        "table2",
        "experiments.table2_fairness",
        "Table 2: hotspot throughput fairness",
    ),
    _kind(
        "fig5",
        "experiments.fig5_preemption",
        "Figure 5: adversarial preemption rates",
    ),
    _kind(
        "fig6",
        "experiments.fig6_slowdown",
        "Figure 6: slowdown + max-min deviation",
    ),
    _kind(
        "fig7",
        "experiments.fig7_energy",
        "Figure 7: router energy per flit (analytical)",
        simulated=False,
    ),
    _kind(
        "saturation",
        "experiments.saturation",
        "Section 5.2: saturation replay rates",
    ),
    _kind(
        "burst_fairness",
        "experiments.burst_fairness",
        "extension: QoS under bursty/replayed traffic",
        target="burst",
    ),
    _kind(
        "pvc_vs_gsf",
        "experiments.pvc_vs_gsf",
        "extension: PVC vs GSF head-to-head (fairness, throttling cost)",
        target="pvcgsf",
    ),
    _kind(
        "ablation_quota",
        "ablations.quota",
        "ablation: reserved per-frame quota",
        target="ablations",
    ),
    _kind(
        "ablation_reserved_vc",
        "ablations.reserved_vc",
        "ablation: rate-compliant reserved VC",
        target="ablations",
    ),
    _kind(
        "ablation_patience",
        "ablations.patience",
        "ablation: preemption patience window",
        target="ablations",
    ),
    _kind(
        "ablation_frame",
        "ablations.frame",
        "ablation: PVC frame length",
        target="ablations",
    ),
    _kind(
        "ablation_window",
        "ablations.window",
        "ablation: source retransmission window",
        target="ablations",
    ),
    _kind(
        "ablation_replica",
        "ablations.replica_policy",
        "ablation: replica arbitration policy",
        target="ablations",
    ),
    _kind(
        "ablation_fbfly",
        "ablations.topology_extension",
        "ablation: flattened-butterfly extension",
        target="ablations",
    ),
    _kind(
        "chip",
        "chip_study",
        "extension: shared-column count and placement (analytical)",
        simulated=False,
    ),
)

STAGE_ADAPTERS: dict[str, StageAdapter] = {
    adapter.kind: adapter for adapter in _ADAPTERS
}

#: All registered stage kinds, sorted for display.
STAGE_KINDS: tuple[str, ...] = tuple(sorted(STAGE_ADAPTERS))

#: CLI experiment targets in table order, each with its kinds in table order.
TARGETS: dict[str, tuple[str, ...]] = {
    target: tuple(adapter.kind for adapter in _ADAPTERS if adapter.target == target)
    for target in dict.fromkeys(adapter.target for adapter in _ADAPTERS)
}


def get_adapter(kind: str) -> StageAdapter:
    """Adapter for ``kind``; raises :class:`CampaignError` if unknown."""
    adapter = STAGE_ADAPTERS.get(kind)
    if adapter is None:
        raise CampaignError(
            f"unknown stage kind {kind!r}; expected one of {list(STAGE_KINDS)}"
        )
    return adapter
