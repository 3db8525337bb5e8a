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

from dataclasses import asdict, dataclass, replace

from repro.analysis.fairness import fairness_report
from repro.errors import SimulationError
from repro.network.config import SimulationConfig
from repro.qos.registry import available_policies
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec
from repro.util.params import resolve_stage_params
from repro.util.tables import format_columns, percent

#: Peak per-injector rate during bursts (flits/cycle).  With eight
#: sources at ~25% duty the long-run hotspot load is ~1.2 flits/cycle —
#: beyond the single ejection port's capacity whenever bursts overlap —
#: so the window is a sequence of congestion episodes, the regime where
#: the three policies actually diverge.
BURST_PEAK_RATE = 0.60

#: Every registered policy, in registry order — the comparison extends
#: automatically when a policy registers (GSF added the fourth leg).
POLICY_ORDER = tuple(available_policies())

#: Campaign stage-adapter defaults (see :func:`stage_rows`).
STAGE_DEFAULTS = {
    "rate": BURST_PEAK_RATE,
    "target": 0,
    "on_cycles": 64,
    "off_cycles": 192,
    "warmup": 1000,
    "window": 6000,
    "topology": "mecs",
    "frame_cycles": 10_000,
}


@dataclass(frozen=True)
class BurstFairnessCell:
    """One (traffic, policy) cell of the comparison."""

    traffic: str  # "bursty" (live sources) or "replayed" (fixed arrivals)
    policy: str
    min_relative: float
    max_relative: float
    mean_latency: float
    preemption_events: int
    delivered_flits: int


def run_burst_fairness(
    *,
    rate: float = BURST_PEAK_RATE,
    target: int = 0,
    on_cycles: int = 64,
    off_cycles: int = 192,
    warmup: int = 1000,
    window: int = 6000,
    topology: str = "mecs",
    config: SimulationConfig | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
) -> list[BurstFairnessCell]:
    """Compare the QoS policies on bursty and replayed hotspot traffic;
    raises :class:`~repro.errors.SimulationError` if a replay diverges."""
    config = config or SimulationConfig(frame_cycles=10_000)
    live = {
        policy: RunSpec(
            topology=topology,
            workload="bursty",
            rate=rate,
            workload_params={
                "target": target,
                "on_cycles": on_cycles,
                "off_cycles": off_cycles,
            },
            policy=policy,
            config=config,
            mode="window",
            cycles=window,
            warmup=warmup,
        )
        for policy in POLICY_ORDER
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
    for policy, bursty, replay in zip(POLICY_ORDER, *legs.values()):
        if replay.snapshot_sha256 != bursty.snapshot_sha256:
            raise SimulationError(
                f"burst_fairness: the replay under {policy!r} diverged from "
                f"its live run (snapshot sha256 {replay.snapshot_sha256[:12]} "
                f"!= {bursty.snapshot_sha256[:12]})"
            )
    cells = []
    for traffic, leg in legs.items():
        for policy, result in zip(POLICY_ORDER, leg):
            report = fairness_report(list(result.window_flits_per_flow))
            cells.append(
                BurstFairnessCell(
                    traffic=traffic,
                    policy=policy,
                    min_relative=report.min_relative,
                    max_relative=report.max_relative,
                    mean_latency=result.mean_latency,
                    preemption_events=result.preemption_events,
                    delivered_flits=result.delivered_flits,
                )
            )
    return cells


def summary_rows(cells: list[BurstFairnessCell]) -> list[dict]:
    """One plain row per (traffic leg, policy)."""
    return [asdict(cell) for cell in cells]


def stage_rows(params: dict | None = None, *, seed: int = 1,
               executor=None, cache=None) -> list[dict]:
    """Campaign stage adapter: the study's :func:`summary_rows`."""
    p = resolve_stage_params(params, STAGE_DEFAULTS, "burst_fairness")
    config = SimulationConfig(frame_cycles=p.pop("frame_cycles"), seed=seed)
    return summary_rows(
        run_burst_fairness(**p, config=config, executor=executor, cache=cache)
    )


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
