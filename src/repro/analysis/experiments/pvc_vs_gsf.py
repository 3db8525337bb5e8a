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

The four runs are one batch of runtime specs, cached and parallel like
every other stage.  Both engines run GSF identically (the
golden-equivalence harness pins it), so these numbers are
engine-independent.  Rows are committed to
``CAMPAIGN_baseline.json``; the ``pvc_vs_gsf`` claims of
:mod:`repro.campaign.claims` assert the qualitative ordering — GSF
fairness comparable to PVC at saturation, GSF latency visibly above PVC
with headroom — rather than exact figures.
"""

from __future__ import annotations

from repro.analysis.fairness import fairness_report
from repro.network.config import SimulationConfig
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: The two policies of the head-to-head, in presentation order.
_POLICY_PAIR = ("pvc", "gsf")

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    "topology": "mecs",
    "target": 0,
    "saturation_rate": 0.05,
    "headroom_rate": 0.05,
    "warmup": 1000,
    "window": 6000,
    "frame_cycles": 1000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (regime, policy).

    Headroom is ``uniform`` with a hotspot target: the eight terminal
    injectors only.  ``throttle_deferrals`` is ``RunResult.deferrals``.
    """
    p = resolve_stage_params(params, STAGE_DEFAULTS, "pvc_vs_gsf")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    regimes = (
        ("saturation", "hotspot64", p["saturation_rate"]),
        ("headroom", "uniform", p["headroom_rate"]),
    )
    specs = {
        (regime, policy): RunSpec(
            topology=p["topology"],
            workload=workload,
            rate=rate,
            workload_params={"target": p["target"]},
            policy=policy,
            config=config,
            mode="window",
            cycles=p["window"],
            warmup=p["warmup"],
        )
        for regime, workload, rate in regimes
        for policy in _POLICY_PAIR
    }
    batch = run_batch(list(specs.values()), executor=executor, cache=cache)
    rows = []
    for (regime, policy), result in zip(specs, batch.results):
        report = fairness_report(list(result.window_flits_per_flow))
        rows.append(
            {
                "regime": regime,
                "policy": policy,
                "min_relative": report.min_relative,
                "max_relative": report.max_relative,
                "mean_latency": result.mean_latency,
                "delivered_flits": result.delivered_flits,
                "preemption_events": result.preemption_events,
                "throttle_deferrals": result.deferrals,
            }
        )
    return rows


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
