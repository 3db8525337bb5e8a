"""Chip-level shared-column placement study."""

from repro.analysis.chip_study import (
    ColumnLayoutPoint,
    format_rows,
    run_chip_study,
    summary_rows,
)


def test_default_layouts_covered():
    points = run_chip_study()
    assert len(points) == 6
    assert points[0].columns == (4,)


def test_middle_beats_edge_on_access_distance():
    points = {p.columns: p for p in run_chip_study(((4,), (0,)))}
    assert points[(4,)].mean_access_distance < points[(0,)].mean_access_distance
    assert points[(4,)].max_access_distance < points[(0,)].max_access_distance


def test_more_columns_shorten_access_but_cost_tiles():
    points = {p.columns: p for p in run_chip_study(((4,), (2, 5)))}
    one, two = points[(4,)], points[(2, 5)]
    assert two.mean_access_distance < one.mean_access_distance
    assert two.compute_tiles < one.compute_tiles
    assert two.compute_nodes_per_shared_router < one.compute_nodes_per_shared_router


def test_isolation_holds_for_every_layout():
    # The physical-isolation property is placement-independent.
    for point in run_chip_study():
        assert point.isolation_violations == 0


def test_format_lists_layouts():
    text = format_rows(summary_rows(run_chip_study()))
    assert "Chip study" in text
    assert "[4]" in text
    assert "[2, 5]" in text


def test_point_fields_sane():
    for point in run_chip_study():
        assert 0.0 <= point.mean_access_distance <= 7.0
        assert point.compute_tiles > 0
        assert isinstance(point, ColumnLayoutPoint)
