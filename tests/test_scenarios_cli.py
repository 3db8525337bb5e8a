"""CLI scenario commands: list / run / record / replay."""

import pytest

from repro.cli import main


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("bursty", "pareto_bursty", "phased", "closed_loop", "replay"):
        assert name in out


def test_scenario_unknown_action(capsys):
    assert main(["scenario", "meow"]) == 2
    assert "meow" in capsys.readouterr().err


def test_scenario_must_lead(capsys):
    assert main(["fig3", "scenario"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_scenario_run_bursty(capsys):
    assert main([
        "scenario", "run", "bursty", "--rate", "0.3", "--cycles", "1200",
        "--param", "on_cycles=40", "--param", "off_cycles=120", "--no-cache",
    ]) == 0
    out = capsys.readouterr().out
    assert "mecs/bursty@0.3/run" in out
    assert "delivered" in out
    assert "[runtime:" in out


def test_scenario_run_closed_loop(capsys):
    assert main([
        "scenario", "run", "closed_loop", "--cycles", "1500",
        "--param", "outstanding=3", "--no-cache",
    ]) == 0
    assert "closed_loop" in capsys.readouterr().out


def test_scenario_run_rejects_bad_workload(capsys):
    assert main(["scenario", "run", "wiggle", "--no-cache"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_scenario_run_rejects_bad_param(capsys):
    assert main([
        "scenario", "run", "bursty", "--rate", "0.3",
        "--param", "malformed", "--no-cache",
    ]) == 2
    assert "key=value" in capsys.readouterr().err


def test_scenario_record_requires_out(capsys):
    assert main(["scenario", "record", "bursty", "--rate", "0.3"]) == 2
    assert "--out" in capsys.readouterr().err


def test_record_then_replay_round_trip(tmp_path, capsys):
    trace_path = str(tmp_path / "bursty.jsonl")
    assert main([
        "scenario", "record", "bursty", "--rate", "0.3",
        "--cycles", "1500", "--out", trace_path,
    ]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and "sha256" in out

    assert main(["scenario", "replay", trace_path]) == 0
    out = capsys.readouterr().out
    assert "round trip bit-identical" in out


def test_replay_detects_divergence(tmp_path, capsys):
    trace_path = tmp_path / "bursty.jsonl"
    assert main([
        "scenario", "record", "bursty", "--rate", "0.3",
        "--cycles", "1200", "--out", str(trace_path),
    ]) == 0
    capsys.readouterr()
    # Corrupt one emission's size: the replay must notice the snapshot
    # no longer matches the recorded digest.
    lines = trace_path.read_text().splitlines()
    assert '"s": ' not in lines[0]
    lines[1] = lines[1].replace('"s":1', '"s":3').replace('"s":4', '"s":1')
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["scenario", "replay", str(trace_path)]) == 1
    assert "DIVERGED" in capsys.readouterr().err


def test_replay_missing_file(capsys):
    assert main(["scenario", "replay", "/nonexistent/trace.jsonl"]) == 2
    assert "scenario replay" in capsys.readouterr().err


@pytest.mark.slow
def test_bench_engine_bursty_regime(capsys):
    assert main([
        "bench", "engine", "--fast", "--regimes", "bursty",
    ]) == 0
    out = capsys.readouterr().out
    assert "bursty_saturation" in out
    assert "identical" in out


@pytest.mark.slow
def test_burst_command(capsys):
    assert main(["burst", "--fast", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Burst fairness" in out
    assert "replayed" in out
