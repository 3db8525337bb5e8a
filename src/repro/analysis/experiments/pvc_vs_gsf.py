"""Extension study — PVC head-to-head with GSF.

The paper motivates PVC by arguing against frame-reservation schemes,
naming Globally-Synchronized Frames (Lee, Ng, Asanović, ISCA 2008) as
the closest prior mechanism.  With both policies behind the registry,
the comparison the paper makes qualitatively can be measured directly.
Two regimes, each run under both policies with identical seeds,
topology and provisioning:

* **saturation** — all 64 provisioned injectors stream to one hotspot
  terminal (the Table 2 workload).  Reservations sum to exactly the
  ejection port's capacity, so both policies should divide bandwidth
  fairly; the interesting deltas are the *cost* columns — PVC pays in
  preemptions (discarded-and-retransmitted packets), GSF pays in
  frame-synchronization latency (packets charged to future frames wait
  out the clock even while contending traffic drains).
* **headroom** — only the eight terminal injectors are active, each
  offering more than its provisioned reservation, with the network far
  from saturated.  PVC's priorities merely *schedule* contention, so
  the spare capacity is used and latency stays low.  GSF's budgets
  *admit* traffic, so each source is clamped to its reservation: the
  throughput cap and the frames-ahead queueing delay measure exactly
  the inflexibility the paper argues a QoS mechanism should avoid.

Both engines run GSF identically (the golden-equivalence harness pins
it), so these numbers are engine-independent.  Rows are committed to
``CAMPAIGN_baseline.json``; the test suite asserts the qualitative
ordering — GSF fairness comparable to PVC at saturation, GSF latency
visibly above PVC with headroom — rather than exact figures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.analysis.fairness import fairness_report
from repro.network.config import COLUMN_NODES, SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.packet import FlowSpec
from repro.qos.registry import create_policy
from repro.topologies.registry import get_topology
from repro.traffic.patterns import hotspot
from repro.traffic.workloads import hotspot_all_injectors
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: The two policies of the head-to-head, in presentation order.
POLICY_PAIR = ("pvc", "gsf")

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "topology": "mecs",
    "target": 0,
    "saturation_rate": 0.05,
    "headroom_rate": 0.05,
    "warmup": 1000,
    "window": 6000,
    "frame_cycles": 1000,
}


@dataclass(frozen=True)
class PvcVsGsfCell:
    """One (regime, policy) cell of the comparison."""

    regime: str  # "saturation" (64 injectors) or "headroom" (8 terminals)
    policy: str
    min_relative: float
    max_relative: float
    mean_latency: float
    delivered_flits: int
    preemption_events: int
    throttle_deferrals: int


def _headroom_flows(rate: float, target: int) -> list[FlowSpec]:
    """Eight terminal injectors only: demand above each reservation,
    aggregate far below link capacity."""
    pattern = hotspot(target)
    return [FlowSpec(node=node, rate=rate, pattern=pattern)
            for node in range(COLUMN_NODES)]


def run_pvc_vs_gsf(
    *,
    topology: str = "mecs",
    target: int = 0,
    saturation_rate: float = 0.05,
    headroom_rate: float = 0.05,
    warmup: int = 1000,
    window: int = 6000,
    config: SimulationConfig | None = None,
) -> list[PvcVsGsfCell]:
    """Run both regimes under both policies; one cell per combination.

    Simulated directly (not through the result cache): the throttling
    cost column reads GSF's deferral counter off the bound policy,
    which a cached :class:`~repro.runtime.spec.RunResult` cannot carry.
    Four small deterministic runs — the stage hash and committed
    baseline pin the output exactly as for cached stages.
    """
    config = config or SimulationConfig(frame_cycles=1000)
    build = get_topology(topology).build
    regimes = (
        ("saturation", lambda: hotspot_all_injectors(
            saturation_rate, target=target)),
        ("headroom", lambda: _headroom_flows(headroom_rate, target)),
    )
    cells = []
    for regime, flows_factory in regimes:
        for policy_name in POLICY_PAIR:
            policy = create_policy(policy_name)
            simulator = ColumnSimulator(
                build(config), flows_factory(), policy, config
            )
            stats = simulator.run_window(warmup, window)
            report = fairness_report(stats.window_flits_per_flow)
            deferrals = getattr(policy, "deferral_count", lambda: 0)()
            cells.append(
                PvcVsGsfCell(
                    regime=regime,
                    policy=policy_name,
                    min_relative=report.min_relative,
                    max_relative=report.max_relative,
                    mean_latency=stats.mean_latency,
                    delivered_flits=stats.delivered_flits,
                    preemption_events=stats.preemption_events,
                    throttle_deferrals=deferrals,
                )
            )
    return cells


def summary_rows(cells: list[PvcVsGsfCell]) -> list[dict]:
    """One plain row per (regime, policy)."""
    return [asdict(cell) for cell in cells]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`.

    ``executor``/``cache`` are accepted for adapter-signature uniformity
    and unused — see :func:`run_pvc_vs_gsf` for why this stage simulates
    directly.
    """
    del executor, cache
    p = resolve_stage_params(params, STAGE_DEFAULTS, "pvc_vs_gsf")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(run_pvc_vs_gsf(**p, config=config))


def format_rows(rows: list[dict]) -> str:
    """Render the PVC-vs-GSF comparison."""
    return format_columns(
        rows,
        {
            "regime": "regime",
            "policy": "policy",
            "min (% mean)": ("min_relative", percent),
            "max (% mean)": ("max_relative", percent),
            "latency (cyc)": "mean_latency",
            "delivered flits": "delivered_flits",
            "preemptions": "preemption_events",
            "deferrals": "throttle_deferrals",
        },
        title="PVC vs GSF (extension): fairness at saturation, "
        "preemption vs frame-throttling cost",
        float_format=".1f",
    )
