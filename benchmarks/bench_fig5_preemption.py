"""Figure 5 — preemption rates under adversarial Workloads 1 and 2."""

from conftest import run_once

from repro.analysis.experiments.fig5_preemption import (
    format_rows,
    run_fig5,
    summary_rows,
)
from repro.network.config import SimulationConfig


def _by(rows, workload):
    return {r.topology: r for r in rows if r.workload == workload}


def test_fig5_adversarial_preemption(benchmark):
    rows = run_once(
        benchmark,
        run_fig5,
        cycles=25_000,
        config=SimulationConfig(frame_cycles=10_000, seed=1),
    )
    print()
    print(format_rows(summary_rows(rows)))
    w1, w2 = _by(rows, "workload1"), _by(rows, "workload2")
    # Paper shape: meshes all preempt heavily on W1; on W2 the baseline
    # mesh and DPS calm down while the replicated meshes keep thrashing.
    assert w1["mesh_x1"].preemption_events > 0
    assert w2["mesh_x1"].preemption_events < w1["mesh_x1"].preemption_events
    assert w2["mesh_x2"].preempted_packet_fraction > w2["mesh_x1"].preempted_packet_fraction
    assert w2["mesh_x4"].preempted_packet_fraction > w2["dps"].preempted_packet_fraction
    assert w1["mecs"].preempted_packet_fraction < 0.12
