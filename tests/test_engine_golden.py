"""Golden-equivalence suite: optimised engine == frozen reference.

The activity-tracked :class:`~repro.network.engine.ColumnSimulator`
skips idle cycles and idle components; these tests pin it to the
pre-optimisation engine preserved in :mod:`repro.network.golden` by
asserting **identical** :meth:`NetworkStats.snapshot` dumps (every
counter, per-flow vector, latency moment and preempted pid) — and, for
a preemption-heavy scenario, identical event traces — across a matrix
of topologies × QoS policies × injection rates, plus the window and
drain run modes.

Any intentional engine behaviour change must update golden.py in the
same commit; an unintentional divergence fails here first.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.network.trace import TraceRecorder
from repro.qos.registry import create_policy
from repro.scenarios import bursty_workload
from repro.topologies.registry import get_topology
from repro.traffic.workloads import (
    full_column_workload,
    hotspot_all_injectors,
    uniform_workload,
    workload1,
    workload1_finite,
    workload2,
)

#: Low / high per-injector rates: the left edge of the latency curves
#: (mostly idle fabric, the cycle-skipping fast path) and a point past
#: saturation (dense fabric, the single-step fall-back path).
RATES = (0.02, 0.30)

TOPOLOGIES = ("mesh_x1", "mesh_x2", "mecs", "dps")


def _pair(topology, flows_factory, policy_name, config):
    """Build (optimised, golden) simulators over identical inputs."""
    sims = []
    for cls in (ColumnSimulator, GoldenColumnSimulator):
        build = get_topology(topology).build(config)
        sims.append(cls(build, flows_factory(), create_policy(policy_name), config))
    return sims


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("policy", ("pvc", "noqos"))
@pytest.mark.parametrize("rate", RATES)
def test_run_mode_matches_golden(topology, policy, rate):
    config = SimulationConfig(frame_cycles=1500, seed=5)
    cycles = 2500 if rate >= 0.1 else 4000
    optimised, golden = _pair(
        topology, lambda: full_column_workload(rate), policy, config
    )
    optimised.run(cycles, warmup=cycles // 4)
    golden.run(cycles, warmup=cycles // 4)
    assert optimised.stats.snapshot() == golden.stats.snapshot()
    assert optimised.cycle == golden.cycle


@pytest.mark.parametrize("topology", ("mesh_x1", "mecs", "dps"))
def test_perflow_policy_matches_golden(topology):
    # The per-flow baseline grows overflow VCs on demand — a different
    # buffering regime than the fixed-VC PVC/no-QoS paths.
    config = SimulationConfig(frame_cycles=1500, seed=5)
    optimised, golden = _pair(
        topology, lambda: uniform_workload(0.15), "perflow", config
    )
    optimised.run(3000)
    golden.run(3000)
    assert optimised.stats.snapshot() == golden.stats.snapshot()


def test_window_mode_matches_golden():
    config = SimulationConfig(frame_cycles=2000, seed=7)
    optimised, golden = _pair("dps", workload2, "pvc", config)
    optimised.run_window(500, 3000)
    golden.run_window(500, 3000)
    assert optimised.stats.snapshot() == golden.stats.snapshot()


def test_drain_mode_matches_golden_completion_cycle():
    config = SimulationConfig(frame_cycles=2000, seed=7)
    optimised, golden = _pair(
        "mecs", lambda: workload1_finite(duration=2000), "pvc", config
    )
    done_optimised = optimised.run_until_drained(max_cycles=60_000)
    done_golden = golden.run_until_drained(max_cycles=60_000)
    assert done_optimised == done_golden
    assert optimised.stats.snapshot() == golden.stats.snapshot()


def test_preemption_heavy_trace_matches_golden():
    # Workload 1 under a short frame and low patience maximises the
    # preemption/NACK/replay machinery; compare full event traces, not
    # just aggregate counters.
    config = SimulationConfig(
        frame_cycles=3000, seed=11, preemption_patience_cycles=4
    )
    optimised, golden = _pair("mesh_x2", workload1, "pvc", config)
    trace_optimised = TraceRecorder(capacity=200_000)
    trace_golden = TraceRecorder(capacity=200_000)
    trace_optimised.attach(optimised)
    trace_golden.attach(golden)
    optimised.run(5000)
    golden.run(5000)
    assert optimised.stats.preemption_events > 0  # the scenario bites
    assert optimised.stats.snapshot() == golden.stats.snapshot()
    assert list(trace_optimised.events) == list(trace_golden.events)


# --- GSF: the frame-throttling policy exercises the injection-release
# hook, which no other registered policy reaches.  Deferred ready_at
# values flow through both engines' admission paths (the ranked path's
# pending heap in the optimised engine, naive per-cycle checks in
# golden), so the matrix spans traffic shapes and both the open and
# drained run modes.  DPS is the one fabric with stations that hold no
# flow state: there a frame boundary clears the packets' carried
# priorities, and the GSF table's flush epoch must rebuild the rankings.

GSF_TOPOLOGIES = ("mesh_x1", "mecs", "dps", "fbfly")


def _gsf_flows(traffic, *, finite):
    limit = 40 if finite else None
    if traffic == "bernoulli":
        return full_column_workload(0.30, packet_limit=limit)
    return bursty_workload(0.45, on_cycles=40, off_cycles=120,
                           packet_limit=limit)


@pytest.mark.parametrize("topology", GSF_TOPOLOGIES)
@pytest.mark.parametrize("traffic", ("bernoulli", "bursty"))
def test_gsf_open_matches_golden(topology, traffic):
    # Short frames against a saturating offered load: most packets are
    # charged to future frames, so the throttling path dominates.
    config = SimulationConfig(frame_cycles=400, seed=9)
    optimised, golden = _pair(
        topology, lambda: _gsf_flows(traffic, finite=False), "gsf", config
    )
    optimised.run(3000, warmup=750)
    golden.run(3000, warmup=750)
    assert optimised.stats.snapshot() == golden.stats.snapshot()
    assert optimised.cycle == golden.cycle
    assert optimised.policy.deferral_count() > 0  # throttling active
    assert optimised.policy.deferral_count() == golden.policy.deferral_count()


@pytest.mark.parametrize("topology", GSF_TOPOLOGIES)
@pytest.mark.parametrize("traffic", ("bernoulli", "bursty"))
def test_gsf_drained_matches_golden(topology, traffic):
    # Finite flows + drain mode: the engines must agree on the cycle the
    # last frame-deferred packet finally lands, i.e. cycle skipping may
    # not jump over a future frame boundary holding admissible work.
    config = SimulationConfig(frame_cycles=400, seed=9)
    optimised, golden = _pair(
        topology, lambda: _gsf_flows(traffic, finite=True), "gsf", config
    )
    done_optimised = optimised.run_until_drained(max_cycles=80_000)
    done_golden = golden.run_until_drained(max_cycles=80_000)
    assert done_optimised == done_golden
    assert optimised.stats.snapshot() == golden.stats.snapshot()


def test_gsf_frame_fence_on_dps_matches_golden():
    # Short frames under the 64-injector hotspot: packets wait at DPS's
    # intermediate hops across many frame boundaries, each of which
    # clears their carried priorities.  The GSF table's flush epoch is
    # the only thing that rebuilds those ports' rankings; without it
    # the engines diverge here.
    config = SimulationConfig(frame_cycles=200, seed=1)
    optimised, golden = _pair(
        "dps", lambda: hotspot_all_injectors(0.2), "gsf", config
    )
    optimised.run(1200)
    golden.run(1200)
    assert optimised.stats.snapshot() == golden.stats.snapshot()
    assert optimised.policy.deferral_count() == golden.policy.deferral_count()


def test_gsf_trace_matches_golden():
    # Event-level agreement, not just aggregate counters, under heavy
    # throttling: every injection, hop and delivery lands on the same
    # cycle in both engines.
    config = SimulationConfig(frame_cycles=300, seed=13)
    optimised, golden = _pair(
        "mecs", lambda: _gsf_flows("bursty", finite=False), "gsf", config
    )
    trace_optimised = TraceRecorder(capacity=200_000)
    trace_golden = TraceRecorder(capacity=200_000)
    trace_optimised.attach(optimised)
    trace_golden.attach(golden)
    optimised.run(4000)
    golden.run(4000)
    assert optimised.policy.deferral_count() > 0
    assert optimised.stats.snapshot() == golden.stats.snapshot()
    assert list(trace_optimised.events) == list(trace_golden.events)


_GSF_TRAFFIC = {
    "hotspot": hotspot_all_injectors,
    "uniform": full_column_workload,
    "bursty": lambda rate, packet_limit: bursty_workload(
        rate, on_cycles=40, off_cycles=120, packet_limit=packet_limit
    ),
}


def _finish(simulator, cycles, packet_limit):
    """Open runs stop at ``cycles``; drained runs report how they ended."""
    if packet_limit is None:
        simulator.run(cycles)
        return None
    try:
        return simulator.run_until_drained(max_cycles=cycles)
    except SimulationError:
        return "undrained"


@given(
    topology=st.sampled_from(GSF_TOPOLOGIES),
    traffic=st.sampled_from(sorted(_GSF_TRAFFIC)),
    rate=st.floats(min_value=0.01, max_value=0.3),
    frame_cycles=st.integers(min_value=50, max_value=1200),
    seed=st.integers(min_value=0, max_value=2**16),
    packet_limit=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    cycles=st.integers(min_value=600, max_value=1500),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_gsf_randomized_differential(
    topology, traffic, rate, frame_cycles, seed, packet_limit, cycles
):
    # Randomized differential run (a finite packet limit selects the
    # drained mode): off the fixed matrix above, both engines must
    # still agree on every counter, the final cycle and the deferrals.
    config = SimulationConfig(frame_cycles=frame_cycles, seed=seed)
    optimised, golden = _pair(
        topology,
        lambda: _GSF_TRAFFIC[traffic](rate, packet_limit=packet_limit),
        "gsf",
        config,
    )
    assert _finish(optimised, cycles, packet_limit) == _finish(
        golden, cycles, packet_limit
    )
    assert optimised.cycle == golden.cycle
    assert optimised.stats.snapshot() == golden.stats.snapshot()
    assert optimised.policy.deferral_count() == golden.policy.deferral_count()


def test_stepwise_runs_match_golden():
    # Chopping one simulation into many small run() calls (as the
    # window-probing tests do) must hit the same states as one big run:
    # cycle skipping may never overshoot a caller's bound.
    config = SimulationConfig(frame_cycles=1000, seed=3)
    optimised, golden = _pair(
        "mesh_x1", lambda: uniform_workload(0.05), "pvc", config
    )
    for chunk in (1, 7, 100, 333, 1, 2059):
        optimised.run(chunk)
        golden.run(chunk)
        assert optimised.cycle == golden.cycle
        assert optimised.stats.snapshot() == golden.stats.snapshot()
        assert all(
            optimised.injector_state(f) == golden.injector_state(f)
            for f in range(len(optimised.flows))
        )
