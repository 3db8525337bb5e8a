"""Table 2 — hotspot throughput fairness across all 64 injectors."""

from conftest import run_once

from repro.analysis.experiments.table2_fairness import (
    format_rows,
    run_table2,
    summary_rows,
)
from repro.network.config import SimulationConfig


def test_table2_hotspot_fairness(benchmark):
    rows = run_once(
        benchmark,
        run_table2,
        rate=0.05,
        warmup=3000,
        window=25_000,
        config=SimulationConfig(frame_cycles=50_000, seed=1),
    )
    print()
    print(format_rows(summary_rows(rows)))
    for row in rows:
        # Paper: min >= 98.5% of mean, max <= 101.9%, std <= 1.1%.
        assert row.report.min_relative > 0.96, row.topology
        assert row.report.max_relative < 1.04, row.topology
        assert row.report.std_relative < 0.02, row.topology
