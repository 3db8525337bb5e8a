"""Chip-level shared-column placement study (extension bench)."""

from conftest import run_once

from repro.analysis.chip_study import format_rows, run_chip_study, summary_rows


def test_chip_column_placement_study(benchmark):
    points = run_once(benchmark, run_chip_study)
    print()
    print(format_rows(summary_rows(points)))
    by_layout = {point.columns: point for point in points}
    # Middle placement halves worst-case access distance vs an edge;
    # extra columns trade compute tiles for proximity and lighter
    # per-router load; isolation holds for every placement.
    assert by_layout[(4,)].max_access_distance < by_layout[(0,)].max_access_distance
    assert (
        by_layout[(2, 5)].mean_access_distance
        < by_layout[(4,)].mean_access_distance
    )
    assert by_layout[(2, 5)].compute_tiles < by_layout[(4,)].compute_tiles
    assert all(point.isolation_violations == 0 for point in points)
