"""Chip-level shared-column placement study."""

from repro.analysis.chip_study import format_rows, stage_rows

#: The keys of every row, in order.
_ROW_KEYS = [
    "columns",
    "mean_access_distance",
    "max_access_distance",
    "compute_tiles",
    "compute_nodes_per_shared_router",
    "isolation_violations",
]


def _by_columns(*layouts) -> dict:
    rows = stage_rows({"layouts": layouts})
    return {tuple(row["columns"]): row for row in rows}


def test_default_layouts_covered():
    rows = stage_rows()
    assert len(rows) == 6
    assert rows[0]["columns"] == [4]


def test_middle_beats_edge_on_access_distance():
    rows = _by_columns((4,), (0,))
    assert rows[(4,)]["mean_access_distance"] < rows[(0,)]["mean_access_distance"]
    assert rows[(4,)]["max_access_distance"] < rows[(0,)]["max_access_distance"]


def test_more_columns_shorten_access_but_cost_tiles():
    rows = _by_columns((4,), (2, 5))
    one, two = rows[(4,)], rows[(2, 5)]
    assert two["mean_access_distance"] < one["mean_access_distance"]
    assert two["compute_tiles"] < one["compute_tiles"]
    assert (two["compute_nodes_per_shared_router"]
            < one["compute_nodes_per_shared_router"])


def test_isolation_holds_for_every_layout():
    # The physical-isolation property is placement-independent.
    for row in stage_rows():
        assert row["isolation_violations"] == 0


def test_format_lists_layouts():
    text = format_rows(stage_rows())
    assert "Chip study" in text
    assert "[4]" in text
    assert "[2, 5]" in text


def test_point_fields_sane():
    for row in stage_rows():
        assert 0.0 <= row["mean_access_distance"] <= 7.0
        assert row["compute_tiles"] > 0
        assert list(row) == _ROW_KEYS
