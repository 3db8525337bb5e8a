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
  sources, run through :mod:`repro.runtime` (content-hashed, cached,
  parallelisable);
* **replayed** — the *same arrival sequence* for every policy: the
  bursty run's injections are captured once (arrivals are pure RNG
  state, independent of the policy) and re-injected under each policy,
  so the comparison is paired sample-for-sample rather than merely
  distribution-for-distribution.

Reported per cell: throughput fairness over the measurement window
(min/max relative to the mean, as in Table 2), mean latency, and
preemption events.  Matching live/replayed rows for the same policy are
expected — arrivals really are policy-independent — and double as a
standing replay-fidelity check: a divergence between the two legs would
mean record-and-replay is no longer faithful.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.analysis.fairness import fairness_report
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.trace import InjectionCapture
from repro.qos.registry import available_policies
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.runner import run_batch
from repro.runtime.spec import POLICIES, RunSpec
from repro.scenarios import capture_to_trace, replayed_workload
from repro.scenarios.workloads import bursty_workload
from repro.topologies.registry import get_topology
from repro.traffic.patterns import hotspot
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
    """Compare the QoS policies on bursty and replayed hotspot traffic."""
    config = config or SimulationConfig(frame_cycles=10_000)
    params = {
        "target": target,
        "on_cycles": on_cycles,
        "off_cycles": off_cycles,
    }
    specs = [
        RunSpec(
            topology=topology,
            workload="bursty",
            rate=rate,
            workload_params=params,
            policy=policy,
            config=config,
            mode="window",
            cycles=window,
            warmup=warmup,
        )
        for policy in POLICY_ORDER
    ]
    batch = run_batch(specs, executor=executor, cache=cache)
    cells = []
    for policy, result in zip(POLICY_ORDER, batch.results):
        report = fairness_report(list(result.window_flits_per_flow))
        cells.append(
            BurstFairnessCell(
                traffic="bursty",
                policy=policy,
                min_relative=report.min_relative,
                max_relative=report.max_relative,
                mean_latency=result.mean_latency,
                preemption_events=result.preemption_events,
                delivered_flits=result.delivered_flits,
            )
        )

    # Replayed comparison: capture the arrival sequence once (creation
    # cycles/destinations/sizes are drawn from per-injector RNG streams
    # and do not depend on the policy), then re-inject it under every
    # policy.  Direct simulation — the trace lives in memory, not on
    # disk, so this leg bypasses the result cache.
    build = get_topology(topology).build
    flows = bursty_workload(
        rate, pattern=hotspot(target), on_cycles=on_cycles,
        off_cycles=off_cycles,
    )
    source = ColumnSimulator(build(config), flows, POLICIES["pvc"](), config)
    capture = InjectionCapture()
    capture.attach(source)
    source.run_window(warmup, window)
    trace = capture_to_trace(capture, source.flows)
    for policy in POLICY_ORDER:
        replay = ColumnSimulator(
            build(config), replayed_workload(trace), POLICIES[policy](), config
        )
        stats = replay.run_window(warmup, window)
        report = fairness_report(stats.window_flits_per_flow)
        cells.append(
            BurstFairnessCell(
                traffic="replayed",
                policy=policy,
                min_relative=report.min_relative,
                max_relative=report.max_relative,
                mean_latency=stats.mean_latency,
                preemption_events=stats.preemption_events,
                delivered_flits=stats.delivered_flits,
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
