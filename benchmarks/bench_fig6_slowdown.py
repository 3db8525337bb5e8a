"""Figure 6 — slowdown vs per-flow queuing; deviation from max-min."""

from conftest import run_once

from repro.analysis.experiments.fig6_slowdown import format_rows, run_fig6, summary_rows
from repro.network.config import SimulationConfig


def test_fig6_slowdown_and_deviation(benchmark):
    rows = run_once(
        benchmark,
        run_fig6,
        duration=10_000,
        window=15_000,
        warmup=3000,
        config=SimulationConfig(frame_cycles=10_000, seed=1),
    )
    print()
    print(format_rows(summary_rows(rows)))
    for row in rows:
        # Paper: slowdown < 5%, average deviation under ~1%.
        assert row.slowdown < 0.05, (row.workload, row.topology)
        assert abs(row.avg_deviation) < 0.02, (row.workload, row.topology)
        # Per-source extremes stay within a few percent.
        assert row.min_deviation > -0.12
        assert row.max_deviation < 0.12
