"""Runtime executor baseline: recording, floors and guard validation."""

import json
import os
from pathlib import Path

import pytest

import repro
from repro.runtime.bench import (
    BENCH_ENGINE_FILENAME,
    RUNTIME_BENCH_FILENAME,
    bench_result,
    format_file,
    guard_file,
    record,
)

ROOT = Path(__file__).resolve().parents[1]


def _result(serial=1.0, pool=0.8, spawn=1.2, dispatch=1.1, equal=True):
    return bench_result(
        "runtime", "runtime_pool",
        {"serial": serial, "pool": pool, "spawn_per_batch": spawn,
         "dispatch": dispatch},
        equal, jobs=2, batches=8, specs_per_batch=2,
    )


def record_runtime_bench(result, path):
    record([result], path)


def validate_runtime_baseline(path):
    return guard_file(path, RUNTIME_BENCH_FILENAME)


def format_runtime_markdown(data):
    return format_file(data, RUNTIME_BENCH_FILENAME)


def test_ratios_derive_from_the_timings():
    result = _result(serial=1.0, pool=0.5, spawn=1.5, dispatch=2.0)
    assert result.parallel_vs_serial == 2.0
    assert result.pool_vs_spawn == 3.0
    assert result.dispatch_vs_serial == 0.5
    assert result.dispatch_vs_pool == 0.25
    assert _result(pool=0.0).pool_vs_spawn == float("inf")
    assert _result(dispatch=0.0).dispatch_vs_serial == float("inf")


def test_dispatch_floor_violations_are_reported(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    record_runtime_bench(_result(dispatch=10.0), path)  # 0.1x vs serial
    violations, data = validate_runtime_baseline(path)
    assert any("dispatch_vs_serial" in violation for violation in violations)
    assert data["_floors"]["dispatch_vs_serial"] == 0.70
    assert "dispatch_vs_serial" in format_runtime_markdown(data)


def test_record_then_validate_round_trips_cleanly(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    record_runtime_bench(_result(), path)
    violations, data = validate_runtime_baseline(path)
    assert violations == []
    assert data["runtime_pool"]["results_equal"] is True
    assert data["_floors"]["pool_vs_spawn"] == 1.0
    assert data["runtime_pool"]["cpu_count"] == os.cpu_count()
    markdown = format_runtime_markdown(data)
    assert "runtime_pool" in markdown and "|" in markdown


def test_record_merges_into_an_existing_baseline(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    legacy = {"fig4_sweep": {"speedup": 1.4, "timings_seconds": {"serial": 2.0}}}
    path.write_text(json.dumps(legacy), encoding="utf-8")
    record_runtime_bench(_result(), path)
    data = json.loads(path.read_text())
    assert data["fig4_sweep"]["speedup"] == 1.4  # legacy entry preserved
    assert "runtime_pool" in data
    assert validate_runtime_baseline(path)[0] == []


def test_diverged_results_and_slow_pool_are_violations(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    record_runtime_bench(
        _result(serial=1.0, pool=2.0, spawn=1.0, equal=False), path
    )
    violations, _ = validate_runtime_baseline(path)
    text = "\n".join(violations)
    assert "results_equal" in text
    assert "pool_vs_spawn" in text
    assert "parallel_vs_serial" in text


def test_single_core_recorder_gets_the_allowance_clamp(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    baseline = {
        "_floors": {"pool_vs_spawn": 1.0, "parallel_vs_serial": 1.0,
                    "single_core_allowance": 0.85},
        "_meta": {"cpu_count": 1},
        "runtime_pool": {"pool_vs_spawn": 1.2, "parallel_vs_serial": 0.9,
                         "results_equal": True},
        "legacy_bench": {"speedup": 0.9},
    }
    path.write_text(json.dumps(baseline), encoding="utf-8")
    assert validate_runtime_baseline(path)[0] == []  # 0.9 >= 0.85 clamp

    # The same numbers on a multi-core recorder fail the 1.0 floor.
    baseline["_meta"]["cpu_count"] = 8
    path.write_text(json.dumps(baseline), encoding="utf-8")
    violations, _ = validate_runtime_baseline(path)
    assert any("parallel_vs_serial 0.9" in v for v in violations)
    assert any("legacy_bench" in v for v in violations)


def test_missing_runtime_pool_section_is_flagged(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    path.write_text("{}", encoding="utf-8")
    violations, _ = validate_runtime_baseline(path)
    assert any("runtime_pool" in v for v in violations)


def test_committed_runtime_baseline_passes_the_guard():
    committed = ROOT / RUNTIME_BENCH_FILENAME
    violations, data = validate_runtime_baseline(committed)
    assert violations == []
    assert data["runtime_pool"]["results_equal"] is True


# -- each row is judged by the host that recorded it ---------------------


def test_recording_a_sweep_keeps_the_pool_rows_single_core_host(
    tmp_path, monkeypatch
):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    record_runtime_bench(_result(serial=1.0, pool=1.05), path)  # 0.952x
    assert validate_runtime_baseline(path)[0] == []  # 0.85 clamp
    # A sweep recorded later on two CPUs must not re-host the pool row.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    record([bench_result("sweeps", "fig4_sweep",
                         {"serial": 2.0, "parallel[2]": 1.0})], path)
    violations, data = validate_runtime_baseline(path)
    assert violations == []
    assert data["runtime_pool"]["cpu_count"] == 1
    assert data["fig4_sweep"]["cpu_count"] == 2


def test_recording_the_pool_keeps_a_legacy_sweeps_host(tmp_path, monkeypatch):
    # The layout before rows carried their own host: one file-wide
    # ``_meta.cpu_count`` written by whichever recorder ran last.
    path = tmp_path / RUNTIME_BENCH_FILENAME
    path.write_text(json.dumps({
        "_meta": {"cpu_count": 1, "engine_version": "1.8.0", "jobs": 2},
        "fig4_40_point_sweep": {
            "speedup": 0.996,
            "timings_seconds": {"parallel[2]": 6.803, "serial": 6.778},
        },
    }))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    record_runtime_bench(_result(serial=1.79, pool=1.0), path)
    violations, data = validate_runtime_baseline(path)
    assert violations == []  # the sweep is still judged as a 1-CPU row
    assert data["_meta"]["cpu_count"] == 1
    # The same sweep recorded on two CPUs is held to the full floor.
    data["fig4_40_point_sweep"]["cpu_count"] = 2
    path.write_text(json.dumps(data))
    violations, _ = validate_runtime_baseline(path)
    assert any("fig4_40_point_sweep: speedup 0.996" in v for v in violations)


@pytest.mark.parametrize("filename",
                         [BENCH_ENGINE_FILENAME, RUNTIME_BENCH_FILENAME])
def test_committed_bench_files_carry_the_current_version(filename):
    data = json.loads((ROOT / filename).read_text(encoding="utf-8"))
    assert data["_meta"]["engine_version"] == repro.__version__
