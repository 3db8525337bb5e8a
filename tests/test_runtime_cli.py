"""CLI wiring of the runtime flags and the cache subcommand."""

import pytest

from repro.cli import _cache, _executor, build_parser, main
from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.spec import RunSpec, execute_spec


def _args(*argv):
    return build_parser().parse_args(["fig3", *argv])


def test_parser_runtime_defaults():
    args = _args()
    assert args.jobs == 1
    assert args.cache_dir is None
    assert not args.no_cache


def test_jobs_flag_selects_the_executor():
    assert isinstance(_executor(_args()), SerialExecutor)
    four = _executor(_args("--jobs", "4"))
    assert isinstance(four, ParallelExecutor)
    assert four.jobs == 4
    import os

    auto = _executor(_args("--jobs", "0"))
    assert auto.jobs == (os.cpu_count() or 1)


def test_negative_jobs_is_an_error(capsys):
    assert main(["fig3", "--jobs", "-2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_no_cache_disables_the_store(tmp_path):
    assert _cache(_args("--no-cache")) is None
    cache = _cache(_args("--cache-dir", str(tmp_path)))
    assert isinstance(cache, ResultCache)
    assert cache.root == tmp_path


def test_cache_info_subcommand(tmp_path, capsys):
    assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "entries:        0" in out


def test_cache_clear_subcommand(tmp_path, capsys):
    spec = RunSpec(topology="mesh_x1", workload="uniform", rate=0.05,
                   config=SimulationConfig(frame_cycles=2000, seed=4),
                   cycles=300)
    ResultCache(tmp_path).put(spec, execute_spec(spec))
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1 cached result(s)" in capsys.readouterr().out
    assert ResultCache(tmp_path).info().entries == 0


def test_cache_unknown_action_fails(tmp_path, capsys):
    assert main(["cache", "shrink", "--cache-dir", str(tmp_path)]) == 2
    assert "shrink" in capsys.readouterr().err


def test_cache_must_be_the_first_target(tmp_path, capsys):
    assert main(["fig3", "cache", "--cache-dir", str(tmp_path)]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_cache_rejects_trailing_targets(tmp_path, capsys):
    assert main(["cache", "info", "fig3", "--cache-dir", str(tmp_path)]) == 2
    assert "fig3" in capsys.readouterr().err


def test_cache_appears_in_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cache" in out
    assert "bench" in out


def test_bench_engine_runs_and_records(tmp_path, capsys, monkeypatch):
    # Shrink the matrix so the smoke test stays fast.
    from repro.runtime import bench

    point = bench.EnginePoint("smoke_mesh", "mesh_x1", 0.05, 300, 50)
    monkeypatch.setattr(bench, "default_points", lambda fast=False: (point,))
    baseline = tmp_path / "BENCH_engine.json"
    assert main(["bench", "engine", "--fast", "--record", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "smoke_mesh" in out
    assert "identical" in out
    import json

    data = json.loads(baseline.read_text())
    assert data["smoke_mesh"]["stats_equal"] is True
    assert data["smoke_mesh"]["timings_seconds"]["golden"] > 0


def test_bench_engine_regime_and_topology_filters(capsys, monkeypatch):
    from repro.runtime import bench

    points = (
        bench.EnginePoint("smoke_mesh", "mesh_x1", 0.05, 300, 50,
                          regime="low_rate"),
        bench.EnginePoint("smoke_mecs", "mecs", 0.05, 300, 50,
                          regime="saturation"),
    )
    monkeypatch.setattr(bench, "default_points", lambda fast=False: points)
    argv = ["bench", "engine", "--fast", "--regimes", "saturation",
            "--topologies", "mecs,dps"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "smoke_mecs" in out
    assert "smoke_mesh" not in out


def test_bench_engine_empty_filter_is_an_error(capsys):
    assert main(["bench", "engine", "--regimes", "nonexistent"]) == 2
    assert "no benchmark points match" in capsys.readouterr().err


def test_bench_guard_passes_clean_baseline(tmp_path, capsys):
    import json

    baseline = tmp_path / "BENCH_engine.json"
    baseline.write_text(json.dumps({
        "_meta": {"engine_version": "0.0.0"},
        "sat_ok": {
            "regime": "saturation", "topology": "mesh_x1", "speedup": 2.1,
            "stats_equal": True,
            "timings_seconds": {"optimized": 0.4, "golden": 0.84},
        },
    }))
    assert main(["bench", "guard", "--record", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "sat_ok" in out
    assert "2.10x" in out
    assert "identical" in out


def test_bench_guard_fails_on_divergence_or_regression(tmp_path, capsys):
    import json

    baseline = tmp_path / "BENCH_engine.json"
    baseline.write_text(json.dumps({
        "diverged": {
            "regime": "saturation", "topology": "mecs", "speedup": 2.0,
            "stats_equal": False,
            "timings_seconds": {"optimized": 0.5, "golden": 1.0},
        },
        "regressed": {
            "regime": "low_rate", "topology": "mesh_x1", "speedup": 0.8,
            "stats_equal": True,
            "timings_seconds": {"optimized": 1.0, "golden": 0.8},
        },
    }))
    assert main(["bench", "guard", "--record", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "Regressions detected" in out
    assert "diverged" in out
    assert "regressed" in out


def test_bench_guard_missing_baseline_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["bench", "guard", "--record", str(missing)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_bench_rejects_unknown_action(capsys):
    assert main(["bench", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_bench_must_be_first_target(capsys):
    assert main(["fig3", "bench"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_profile_flag_prints_cprofile_report(capsys):
    assert main(["fig3", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "cProfile top 20" in out
    assert "cumulative" in out
    assert "Figure 3" in out  # the target's own output still appears


@pytest.mark.slow
def test_saturation_end_to_end_populates_and_reuses_cache(tmp_path, capsys):
    argv = ["saturation", "--fast", "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "Section 5.2" in first
    assert "[runtime: 4 simulated, 0 cached]" in first
    entries = ResultCache(tmp_path).info().entries
    assert entries == 4  # smoke budget: 2 patterns x 2 topologies

    assert main(argv) == 0
    second = capsys.readouterr().out
    # Identical tables, no new cache entries: the rerun was free.
    assert "[runtime: 0 simulated, 4 cached]" in second
    assert first.split("[runtime")[0] == second.split("[runtime")[0]
    assert ResultCache(tmp_path).info().entries == entries
