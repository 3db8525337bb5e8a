"""CLI observability: obs verbs, --profile dumps, bench obs guard."""

import json
import pstats

import pytest

from repro.cli import main
from repro.runtime.bench import (
    BENCH_ENGINE_FILENAME,
    EnginePoint,
    guard_file,
    record,
    report_results,
    run_section,
)


@pytest.fixture(scope="module")
def recorded_dir(tmp_path_factory):
    """One ``repro obs record`` run shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("obs")
    code = main([
        "obs", "record", "bursty", "--rate", "0.3", "--cycles", "1500",
        "--window", "300", "--timeline", "--out", str(out),
    ])
    assert code == 0
    return out


def test_obs_record_writes_artifact_set(recorded_dir):
    stems = {p.name.split(".", 1)[1] for p in recorded_dir.iterdir()}
    assert stems == {"metrics.jsonl", "trace.json", "run.json"}
    # All three share the spec's base-hash stem.
    assert len({p.name.split(".", 1)[0] for p in recorded_dir.iterdir()}) == 1


def test_obs_report_renders_sections(recorded_dir, capsys):
    assert main(["obs", "report", str(recorded_dir)]) == 0
    out = capsys.readouterr().out
    assert "per-window delivered flits" in out
    assert "per-window dynamics:" in out
    assert "latency histogram" in out
    assert "busiest output ports" in out


def test_obs_timeline_verifies_digest(recorded_dir, capsys):
    assert main(["obs", "timeline", str(recorded_dir)]) == 0
    out = capsys.readouterr().out
    assert "snapshot digest verified" in out
    assert "perfetto" in out


def test_obs_usage_errors(tmp_path, capsys):
    assert main(["obs"]) == 2
    assert main(["obs", "record"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["obs", "record", "bursty"]) == 2  # no --out / --obs
    assert "--out" in capsys.readouterr().err
    assert main(["obs", "report"]) == 2
    assert main(["obs", "report", str(tmp_path / "missing")]) == 2
    assert main(["obs", "timeline", str(tmp_path / "missing")]) == 2
    assert main(["obs", "polish"]) == 2
    assert "polish" in capsys.readouterr().err


def test_profile_writes_pstats_dump(tmp_path, monkeypatch, capsys):
    # Dumps land in the git-ignored profiles/ directory, created on
    # demand, so --profile never litters the repo root.
    monkeypatch.chdir(tmp_path)
    assert main(["fig3", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profiles/profile_fig3.pstats" in out.replace("\\", "/")
    stats = pstats.Stats(str(tmp_path / "profiles" / "profile_fig3.pstats"))
    assert stats.total_calls > 0


TINY_POINT = EnginePoint("tiny", "mesh_x1", 0.05, 300, regime="low_rate")


def test_run_obs_overhead_tiny_point(tmp_path):
    results = run_section("obs", points=(TINY_POINT,), repeats=1)
    assert [r.point.name for r in results] == ["tiny"]
    result = results[0]
    assert result.stats_equal
    assert result.timings_seconds["off"] > 0
    assert result.timings_seconds["on"] > 0
    assert "tiny" in report_results(results)[0]
    path = tmp_path / "baseline.json"
    record(results, path)
    data = json.loads(path.read_text())
    assert "tiny" in data["_obs"]["points"]


HEALTHY_POINT = {
    "regime": "saturation",
    "topology": "mecs",
    "timings_seconds": {"optimized": 1.0, "golden": 2.0},
    "speedup": 2.0,
    "stats_equal": True,
}


def test_bench_guard_flags_obs_violations(tmp_path, capsys):
    baseline = {
        "saturation_mecs_0p30": HEALTHY_POINT,
        "_obs": {
            "max_enabled_overhead": 1.5,
            "points": {
                "bad": {
                    "regime": "saturation",
                    "timings_seconds": {
                        "off": 1.0, "on": 4.0, "golden": 0.5,
                    },
                    "speedup_off": 0.5,
                    "enabled_overhead": 3.0,
                    "stats_equal": False,
                },
            },
        },
    }
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps(baseline))
    violations, _ = guard_file(path, BENCH_ENGINE_FILENAME)
    assert len(violations) == 3
    assert all(v.startswith("obs:bad:") for v in violations)
    assert main(["bench", "guard", "--record", str(path)]) == 1
    out = capsys.readouterr().out
    assert "Regressions detected" in out
    assert "stats_equal is false" in out
    assert "exceeds" in out


def test_bench_guard_passes_healthy_obs_section(tmp_path, capsys):
    results = run_section("obs", points=(TINY_POINT,), repeats=1)
    path = tmp_path / "BENCH_engine.json"
    record(results, path)
    # A freshly recorded section may legitimately report speedup_off < 1
    # on a tiny 300-cycle point (timer noise); pin the floor fields so
    # the test asserts the guard logic, not the machine's clock.
    data = json.loads(path.read_text())
    data["saturation_mecs_0p30"] = HEALTHY_POINT
    entry = data["_obs"]["points"]["tiny"]
    entry["speedup_off"] = max(entry["speedup_off"], 1.0)
    entry["enabled_overhead"] = min(entry["enabled_overhead"], 1.0)
    path.write_text(json.dumps(data))
    assert main(["bench", "guard", "--record", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Probe overhead" in out
    assert "tiny" in out
