"""``repro report``: what ``repro all`` prints, written into REPORT.md."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("report")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        assert main(["report", "--fast", "--seed", "3"]) == 0
    return directory


@pytest.fixture(scope="module")
def fast_report(report_dir) -> str:
    return (report_dir / "REPORT.md").read_text(encoding="utf-8")


def test_fast_report_contains_every_section(fast_report):
    for title in (
        "Figure 3",
        "Figure 4",
        "Table 2",
        "Figure 5",
        "Figure 6",
        "Figure 7",
        "Section 5.2: preemption rates in saturation",
        "Burst fairness",
        "PVC vs GSF",
        "Ablation: reserved quota",
        "Extension: flattened butterfly",
        "Chip study: shared-column count and placement",
    ):
        assert title in fast_report, title


def test_report_mode_header(fast_report):
    assert "fast (smoke budgets)" in fast_report
    assert "seed: 3" in fast_report


def test_report_tables_render(fast_report):
    assert "mesh_x1" in fast_report
    assert "dps" in fast_report
    assert "```" in fast_report


def test_write_report_creates_file(report_dir):
    assert [path.name for path in report_dir.iterdir()] == ["REPORT.md"]
    text = (report_dir / "REPORT.md").read_text(encoding="utf-8")
    assert text.startswith("# Reproduction report")
