"""Section 5.2 — packet replay rates in saturation."""

from conftest import run_once

from repro.analysis.experiments.saturation import (
    format_rows,
    run_saturation,
    summary_rows,
)
from repro.network.config import SimulationConfig


def test_saturation_preemption_rates(benchmark):
    points = run_once(
        benchmark,
        run_saturation,
        rate=0.15,
        cycles=8000,
        config=SimulationConfig(frame_cycles=10_000, seed=1),
    )
    print()
    print(format_rows(summary_rows(points)))
    uniform = {p.topology: p for p in points if p.pattern == "uniform"}
    tornado = {p.topology: p for p in points if p.pattern == "tornado"}
    # Paper: MECS has the lowest replay rate; topologies with greater
    # channel resources show better immunity on these permutations, and
    # tornado generates fewer preemptions than uniform random for the
    # single-channel topologies.
    assert uniform["mecs"].replayed_packet_fraction <= min(
        p.replayed_packet_fraction for p in uniform.values()
    ) + 1e-9
    assert (
        tornado["mesh_x1"].replayed_packet_fraction
        <= uniform["mesh_x1"].replayed_packet_fraction + 1e-9
    )
