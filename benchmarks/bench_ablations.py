"""Ablation benches: the design-choice studies of ``repro.analysis.ablations``.

Not paper figures — these quantify the mechanisms the paper's results
rest on (reserved quota, reserved VC, inversion-detection patience,
frame length, retransmission window, replica selection) plus the
flattened-butterfly alternative Section 2.2 names but does not evaluate.
"""

from conftest import record_runtime_baseline, run_once, time_variants

from repro.analysis.ablations import (
    frame,
    patience,
    quota,
    replica_policy,
    reserved_vc,
    run_fbfly_study,
    run_frame_ablation,
    run_patience_ablation,
    run_quota_ablation,
    run_replica_ablation,
    run_reserved_vc_ablation,
    run_window_ablation,
    topology_extension,
    window,
)


def _show(module, results) -> None:
    print()
    print(module.format_rows(module.summary_rows(results)))


def test_ablation_reserved_quota(benchmark):
    points = run_once(benchmark, run_quota_ablation)
    _show(quota, points)
    # Larger quotas damp adversarial preemption (monotone up to a small
    # stochastic tolerance); a full-frame quota suppresses it entirely.
    events = [point.preemption_events for point in points]
    for earlier, later in zip(events, events[1:]):
        assert later <= earlier * 1.05 + 5
    assert events[-1] == 0
    assert events[-1] < events[0]


def test_ablation_reserved_vc(benchmark):
    points = run_once(benchmark, run_reserved_vc_ablation)
    _show(reserved_vc, points)
    assert len(points) == 4


def test_ablation_patience(benchmark):
    points = run_once(benchmark, run_patience_ablation)
    _show(patience, points)
    events = [point.preemption_events for point in points]
    # An impatient trigger thrashes; patience damps it monotonically.
    assert events == sorted(events, reverse=True)
    assert events[0] > 5 * events[-1]


def test_ablation_frame_length(benchmark):
    points = run_once(benchmark, run_frame_ablation)
    _show(frame, points)
    # Longer frames -> tighter hotspot fairness (monotone, modulo noise).
    assert points[-1].fairness_std <= points[0].fairness_std


def test_ablation_window(benchmark):
    points = run_once(benchmark, run_window_ablation)
    _show(window, points)
    flits = [point.delivered_flits for point in points]
    # Throughput grows with the window until the RTT is covered.
    assert flits == sorted(flits)
    assert flits[-1] > 5 * flits[0]


def test_ablation_replica_policy(benchmark):
    points = run_once(benchmark, run_replica_ablation)
    _show(replica_policy, points)
    by_key = {(p.replication, p.policy): p for p in points}
    # Static per-flow pinning removes destination re-convergence and
    # with it a large share of the Workload 2 replayed hops.
    for replication in (2, 4):
        rr = by_key[(replication, "packet_rr")]
        pinned = by_key[(replication, "per_flow")]
        assert pinned.w2_wasted_hop_fraction <= rr.w2_wasted_hop_fraction


def test_extension_flattened_butterfly(benchmark):
    rows = run_once(benchmark, run_fbfly_study)
    _show(topology_extension, rows)
    by_name = {row.topology: row for row in rows}
    # fbfly's dedicated channels match MECS latency at low load and its
    # single-hop reach keeps 3-hop energy in the MECS/DPS class.
    assert abs(by_name["fbfly"].uniform_latency - by_name["mecs"].uniform_latency) < 2.0
    assert by_name["fbfly"].three_hop_energy_pj < 14.0


def test_ablations_serial_vs_parallel_runtime(benchmark):
    """Patience + quota sweeps on both executors: equal points, timings."""

    def sweep(executor):
        return (
            run_patience_ablation(executor=executor),
            run_quota_ablation(executor=executor),
        )

    timings, results = time_variants(sweep)
    serial = results["serial"]
    parallel = next(v for k, v in results.items() if k.startswith("parallel"))
    assert serial == parallel
    record_runtime_baseline("ablations_patience_plus_quota", timings)
    print()
    print(f"ablation runtime comparison: {timings}")
    run_once(benchmark, patience.format_rows, patience.summary_rows(serial[0]))
