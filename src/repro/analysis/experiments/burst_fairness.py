"""Extension study — QoS under bursty and replayed traffic.

The paper's evaluation is stationary (Bernoulli sources at fixed
rates), yet PVC's mechanisms — frame flushes, preemption throttles,
ACK/NACK retransmission — are stressed hardest by *non-stationary*
load, and the frame-reservation alternative it argues against (GSF) is
distinguished precisely by behaviour under bursts.  This study drives
on/off bursty hotspot traffic through every registered policy — PVC,
the per-flow-queued baseline, no-QoS, and GSF itself (whose frame
budgets turn bursts into queued frames) — twice:

* **bursty** — live :class:`~repro.scenarios.injection.OnOffProcess`
  sources;
* **replayed** — the *same arrival sequence* for every policy: the PVC
  bursty run's injections (pure RNG state, independent of the policy)
  re-injected under each policy by a replay spec naming that run, so
  the comparison is paired sample-for-sample rather than merely
  distribution-for-distribution.

Both legs are one batch of runtime specs (content-hashed, cached,
parallelisable).

Reported per cell: throughput fairness over the measurement window
(min/max relative to the mean, as in Table 2), mean latency, and
preemption events.  Matching live/replayed rows for the same policy are
expected — arrivals really are policy-independent — and double as a
standing replay-fidelity check: the stage fails unless each replay's
stats-snapshot digest equals its live run's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.fairness import fairness_report
from repro.errors import SimulationError
from repro.network.config import SimulationConfig
from repro.qos.registry import available_policies
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: Every registered policy, in registry order — the comparison extends
#: automatically when a policy registers (GSF added the fourth leg).
_POLICIES = tuple(available_policies())

#: The study's budgets; a campaign stage's params override them.
STAGE_DEFAULTS = {
    # Peak per-injector rate during bursts (flits/cycle).  With eight
    # sources at ~25% duty the long-run hotspot load is ~1.2
    # flits/cycle — beyond the single ejection port's capacity whenever
    # bursts overlap — so the window is a sequence of congestion
    # episodes, the regime where the policies actually diverge.
    "rate": 0.60,
    "target": 0,
    "on_cycles": 64,
    "off_cycles": 192,
    "warmup": 1000,
    "window": 6000,
    "topology": "mecs",
    "frame_cycles": 10_000,
}


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """One row per (traffic leg, policy); raises
    :class:`~repro.errors.SimulationError` if a replay diverges."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "burst_fairness")
    config = SimulationConfig(frame_cycles=p["frame_cycles"], seed=seed)
    live = {
        policy: RunSpec(
            topology=p["topology"],
            workload="bursty",
            rate=p["rate"],
            workload_params={
                "target": p["target"],
                "on_cycles": p["on_cycles"],
                "off_cycles": p["off_cycles"],
            },
            policy=policy,
            config=config,
            mode="window",
            cycles=p["window"],
            warmup=p["warmup"],
        )
        for policy in _POLICIES
    }
    # Creation cycles, destinations and sizes are drawn from
    # per-injector RNG streams and do not depend on the policy, so the
    # PVC run's arrivals are every policy's arrivals.
    source = {"source": live["pvc"].canonical_json()}
    replayed = [
        replace(spec, workload="replay", rate=None, workload_params=source)
        for spec in live.values()
    ]
    batch = run_batch([*live.values(), *replayed], executor=executor, cache=cache)
    results = batch.results
    legs = {"bursty": results[: len(live)], "replayed": results[len(live):]}
    for policy, bursty, replay in zip(_POLICIES, *legs.values()):
        if replay.snapshot_sha256 != bursty.snapshot_sha256:
            raise SimulationError(
                f"burst_fairness: the replay under {policy!r} diverged from "
                f"its live run (snapshot sha256 {replay.snapshot_sha256[:12]} "
                f"!= {bursty.snapshot_sha256[:12]})"
            )
    rows = []
    for traffic, leg in legs.items():
        for policy, result in zip(_POLICIES, leg):
            report = fairness_report(list(result.window_flits_per_flow))
            rows.append(
                {
                    "traffic": traffic,
                    "policy": policy,
                    "min_relative": report.min_relative,
                    "max_relative": report.max_relative,
                    "mean_latency": result.mean_latency,
                    "preemption_events": result.preemption_events,
                    "delivered_flits": result.delivered_flits,
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render the bursty/replayed fairness comparison."""
    return format_columns(
        rows,
        {
            "traffic": "traffic",
            "policy": "policy",
            "min (% mean)": ("min_relative", percent),
            "max (% mean)": ("max_relative", percent),
            "latency (cyc)": "mean_latency",
            "preemptions": "preemption_events",
            "delivered flits": "delivered_flits",
        },
        title="Burst fairness (extension): bursty hotspot, live vs replayed arrivals",
        float_format=".1f",
    )
