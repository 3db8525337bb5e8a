"""GSF mechanics: frame budgets, source throttling, the head-to-head.

Policy-level tests drive :class:`GsfPolicy` directly through the
``QosPolicy`` contract calls the engines make (charge on creation,
release at placement, compliance reads); the engine-level test pins the
end-to-end property — a budget-exhausted source emits nothing further
until the next frame boundary — and the experiment test asserts the
qualitative PVC-vs-GSF ordering the extension study reports.
"""

import pytest

from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.fabric import Station
from repro.network.packet import FlowSpec, Packet
from repro.network.trace import TraceKind, TraceRecorder
from repro.qos.gsf import GsfPolicy
from repro.qos.pvc import PROVISIONED_INJECTORS
from repro.topologies.registry import get_topology
from repro.traffic.patterns import hotspot
from repro.traffic.workloads import hotspot_all_injectors

FRAME = 100

#: The router the unit tests' compliance reads happen at.
STATION = Station(0, 2, "r2.term", "terminal", n_vcs=1, va_wait=1, qos=True)


def _bound_policy(*, share=0.1, weights=(1.0,)):
    policy = GsfPolicy()
    flows = [FlowSpec(node=0, rate=0.1, weight=w) for w in weights]
    config = SimulationConfig(frame_cycles=FRAME, reserved_quota_share=share,
                             seed=1)
    policy.bind(8, flows, config)
    return policy


def _packet(policy, flow_id, size, now):
    """One create→release round-trip, as the engines perform it."""
    pid = policy._created
    policy.on_packet_created(flow_id, size, now)
    packet = Packet(pid=pid, flow_id=flow_id, src=0, dst=1, size=size,
                    created_at=now)
    release = policy.injection_release(packet, now)
    return packet, release


def test_budget_is_share_times_frame_times_weight():
    policy = _bound_policy(share=0.1, weights=(1.0, 2.0))
    assert policy.budget_flits(0) == pytest.approx(0.1 * FRAME)
    assert policy.budget_flits(1) == pytest.approx(0.1 * FRAME * 2.0)


def test_default_share_matches_pvc_provisioning():
    policy = GsfPolicy()
    config = SimulationConfig(frame_cycles=FRAME, seed=1)
    assert config.reserved_quota_share is None
    policy.bind(8, [FlowSpec(node=0)], config)
    assert policy.budget_flits(0) == pytest.approx(
        FRAME / PROVISIONED_INJECTORS
    )


def test_packets_charge_active_frame_until_budget_exhausted():
    policy = _bound_policy(share=0.1)  # 10 flits per frame
    # Two 4-flit packets fit frame 0 (8 <= 10); the third rolls over.
    for _ in range(2):
        packet, release = _packet(policy, 0, 4, now=5)
        assert packet.frame_tag == 0
        assert release == 5  # active-frame packets are not deferred
    assert policy.is_rate_compliant(STATION, packet, 5)
    packet, release = _packet(policy, 0, 4, now=5)
    assert packet.frame_tag == 1
    assert release == FRAME  # held until its window opens
    assert policy.deferral_count() == 1
    assert not policy.is_rate_compliant(STATION, packet, 5)
    # ... and compliance returns once the clock reaches the charged frame.
    assert policy.is_rate_compliant(STATION, packet, FRAME)


def test_throttled_source_charges_successive_frames():
    policy = _bound_policy(share=0.04)  # 4 flits: one packet per frame
    frames = [
        _packet(policy, 0, 4, now=0)[0].frame_tag for _ in range(4)
    ]
    assert frames == [0, 1, 2, 3]
    assert policy.charged_frame(0) == 3
    assert policy.deferral_count() == 3


def test_oversized_packet_admitted_alone_per_frame():
    policy = _bound_policy(share=0.02)  # 2-flit budget, 4-flit packets
    first, _ = _packet(policy, 0, 4, now=0)
    second, _ = _packet(policy, 0, 4, now=0)
    assert (first.frame_tag, second.frame_tag) == (0, 1)


def test_frame_rollover_reclaims_stale_budget():
    policy = _bound_policy(share=0.1)
    for _ in range(3):  # charge pointer runs ahead to frame 1
        _packet(policy, 0, 4, now=0)
    assert policy.charged_frame(0) == 1
    # Two frames of idleness: the next charge snaps to the active frame
    # (frame 5), reclaiming nothing from the stale window.
    packet, release = _packet(policy, 0, 4, now=5 * FRAME + 10)
    assert packet.frame_tag == 5
    assert release == 5 * FRAME + 10


def test_release_never_moves_a_packet_earlier():
    policy = _bound_policy(share=1.0)  # effectively unthrottled
    packet, release = _packet(policy, 0, 4, now=250)
    assert packet.frame_tag == 2
    assert release == 250  # window already open: ready_at unchanged
    assert policy.deferral_count() == 0


def test_set_weight_rescales_budget_and_validates():
    policy = _bound_policy(share=0.1)
    policy.set_weight(0, 3.0)
    assert policy.budget_flits(0) == pytest.approx(0.1 * FRAME * 3.0)
    with pytest.raises(ConfigurationError, match="positive"):
        policy.set_weight(0, 0.0)


def test_priority_is_the_charged_frame():
    policy = _bound_policy(share=0.04)
    early, _ = _packet(policy, 0, 4, now=0)
    late, _ = _packet(policy, 0, 4, now=0)
    assert policy.priority(None, early, 0) < policy.priority(None, late, 0)
    # The ranked-path table.  A False compliance read leaves the cycle
    # at which the answer can next flip: the start of the charged frame.
    table = policy.priority_cache()
    assert policy.charged_frame(0) == 1
    assert not policy.is_rate_compliant(STATION, late, 0)
    assert table.comp_thresholds[STATION.node * table.n_flows] == FRAME
    # Every frame boundary is a rank-rebuild fence...
    policy.on_frame(FRAME)
    assert table.epoch == 1
    assert policy.is_rate_compliant(STATION, late, FRAME)
    # ...and the table is never charged: no priority stamp is ever
    # valid (the engine reads the tag via `priority`), no version moves.
    assert all(stamp != table.epoch for stamp in table.prio_stamps)
    assert not any(table.versions)


def _hotspot_run(policy):
    config = SimulationConfig(frame_cycles=300, seed=3)
    simulator = ColumnSimulator(
        get_topology("mecs").build(config), hotspot_all_injectors(0.05),
        policy, config,
    )
    simulator.run(1500)
    return simulator.stats.snapshot(), policy.deferral_count()


def test_rebound_policy_reproduces_a_fresh_run():
    # Binding resets every per-run field: a second simulator driven by
    # the same instance must see exactly what a fresh policy sees.
    fresh = _hotspot_run(GsfPolicy())
    policy = GsfPolicy()
    _hotspot_run(policy)
    assert _hotspot_run(policy) == fresh
    assert fresh[1] > 0  # the throttle actually bit


def test_engine_budget_exhausted_source_waits_for_frame_boundary():
    # One saturating injector, a 10-flit-per-frame reservation, fixed
    # 4-flit packets: exactly two packets fit each frame, and the third
    # waits at the source for the next window even though the fabric is
    # otherwise idle.  A packet *enters* the injection buffer whenever
    # there is room (the INJECT trace line); the throttle gates its
    # first hop grant — so the budget shows up in hop-0 WIN events.
    config = SimulationConfig(frame_cycles=200, reserved_quota_share=0.05,
                              seed=2)
    flows = [FlowSpec(node=4, rate=0.8, pattern=hotspot(0),
                      size_mix=((4, 1.0),))]
    policy = GsfPolicy()
    simulator = ColumnSimulator(
        get_topology("mecs").build(config), flows, policy, config
    )
    recorder = TraceRecorder(capacity=100_000)
    recorder.attach(simulator)
    frames = 10
    simulator.run(frames * 200)
    departures = [e.cycle for e in recorder.events
                  if e.kind is TraceKind.WIN and e.detail == "hop=0"]
    assert policy.deferral_count() > 0  # the throttle actually bit
    per_frame = [0] * frames
    for cycle in departures:
        per_frame[cycle // 200] += 1
    # Never more than the two packets the 10-flit budget admits; the
    # demand (rate 0.8) would depart far more often if unthrottled.
    assert all(count <= 2 for count in per_frame)
    assert sum(per_frame) <= 2 * frames
    assert max(per_frame[1:]) == 2  # budget actually used, not starved
    assert simulator.stats.preemption_events == 0  # GSF never preempts


def test_pvc_vs_gsf_qualitative_ordering():
    from repro.analysis.experiments.pvc_vs_gsf import run_pvc_vs_gsf

    cells = {
        (cell.regime, cell.policy): cell
        for cell in run_pvc_vs_gsf(
            warmup=500, window=3000,
            config=SimulationConfig(frame_cycles=500, seed=1),
        )
    }
    sat_pvc = cells[("saturation", "pvc")]
    sat_gsf = cells[("saturation", "gsf")]
    # Comparable fairness at saturation: both policies keep every flow
    # within a broad band of its fair share...
    assert sat_gsf.min_relative >= sat_pvc.min_relative - 0.15
    # ...but they pay differently: PVC preempts, GSF defers at source.
    assert sat_pvc.preemption_events > 0
    assert sat_pvc.throttle_deferrals == 0
    assert sat_gsf.preemption_events == 0
    assert sat_gsf.throttle_deferrals > 0

    head_pvc = cells[("headroom", "pvc")]
    head_gsf = cells[("headroom", "gsf")]
    # With spare capacity, PVC's scheduling-only QoS uses it; GSF's
    # admission-based reservations clamp throughput and stall packets
    # across frame boundaries — the paper's core argument.
    assert head_gsf.delivered_flits < head_pvc.delivered_flits
    assert head_gsf.mean_latency > 10 * head_pvc.mean_latency
    assert head_gsf.throttle_deferrals > 0
