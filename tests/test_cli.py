"""CLI: argument handling and fast-path execution."""

import pytest

from repro.campaign.stages import TARGETS
from repro.cli import build_parser, main


def test_list_prints_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in [*TARGETS, "report"]:
        assert name in out


def test_unknown_target_fails(capsys):
    assert main(["figure9"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_fig3_runs(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "[fig3:" in out


def test_fig7_runs(capsys):
    assert main(["fig7"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_multiple_targets(capsys):
    assert main(["fig3", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "Figure 7" in out


@pytest.mark.slow
def test_fig4_fast_with_chart(capsys):
    assert main(["fig4", "--fast", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "uniform random" in out
    assert "mesh_x1" in out


def test_parser_defaults():
    args = build_parser().parse_args(["fig3"])
    assert args.seed == 1
    assert not args.fast
    assert not args.chart


def test_seed_flag():
    args = build_parser().parse_args(["fig3", "--seed", "9"])
    assert args.seed == 9
