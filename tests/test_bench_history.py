"""Bench trend history and the dispatch journal-overhead guard."""

import json

import pytest

from repro.runtime.bench import (
    BENCH_ENGINE_FILENAME,
    BENCH_HISTORY_FILENAME,
    RUNTIME_BENCH_FILENAME,
    append_bench_history,
    bench_history_entry,
    bench_result,
    flag_history_regressions,
    format_bench_history,
    guard_file,
    load_bench_history,
    record,
    report_results,
)


def _journal_result(off=0.5, on=0.52, equal=True):
    return bench_result("journal", "journal", {"off": off, "on": on}, equal,
                        jobs=2, batches=4, specs_per_batch=2)


def validate_runtime_baseline(path):
    return guard_file(path, RUNTIME_BENCH_FILENAME)


def _entry(version="1.9.0", **speedups):
    return {
        "engine_version": version,
        "recorded_utc": "2026-01-01T00:00:00Z",
        "speedups": speedups,
        "violations": [],
    }


# -- journal overhead section -----------------------------------------


def test_journal_overhead_ratios_and_formatting():
    result = _journal_result(off=0.5, on=0.6)
    assert result.speedup_off == pytest.approx(1.2)
    assert result.journal_overhead == pytest.approx(0.2)
    table = report_results([result])[0]
    assert "journal overhead" in table and "identical" in table


def test_record_journal_overhead_round_trips(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    path.write_text(json.dumps({"runtime_pool": {
        "results_equal": True, "pool_vs_spawn": 1.5,
        "parallel_vs_serial": 1.5, "dispatch_vs_serial": 0.9,
    }}))
    record([_journal_result()], path)
    violations, data = validate_runtime_baseline(path)
    assert violations == []
    assert data["_journal"]["results_equal"] is True
    assert data["_journal"]["floor_speedup_off"] == 1.0


def test_journal_floor_and_divergence_are_violations(tmp_path):
    path = tmp_path / RUNTIME_BENCH_FILENAME
    path.write_text(json.dumps({"runtime_pool": {
        "results_equal": True, "pool_vs_spawn": 1.5,
        "parallel_vs_serial": 1.5, "dispatch_vs_serial": 0.9,
    }}))
    # Journal-off slower than journal-on: the disabled path costs time.
    record([_journal_result(off=1.0, on=0.8, equal=False)], path)
    violations, _ = validate_runtime_baseline(path)
    assert any("journal-off speedup" in violation for violation in violations)
    assert any("perturbed results" in violation for violation in violations)


# -- trend history -----------------------------------------------------


def test_history_append_load_round_trip(tmp_path):
    path = tmp_path / BENCH_HISTORY_FILENAME
    assert load_bench_history(path) == []
    append_bench_history(path, _entry(fig4=1.5))
    append_bench_history(path, _entry(fig4=1.6))
    entries = load_bench_history(path)
    assert [e["speedups"]["fig4"] for e in entries] == [1.5, 1.6]


def test_history_rejects_corrupt_lines(tmp_path):
    path = tmp_path / BENCH_HISTORY_FILENAME
    append_bench_history(path, _entry(fig4=1.5))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn": tru\n')
    with pytest.raises(ValueError, match="line 2"):
        load_bench_history(path)
    path.write_text('{"no_speedups": 1}\n')
    with pytest.raises(ValueError, match="'speedups' mapping"):
        load_bench_history(path)


def test_trailing_window_flags_a_drop():
    entries = [_entry(fig4=1.5) for _ in range(4)] + [_entry(fig4=1.0)]
    flags = flag_history_regressions(entries, window=5, tolerance=0.9)
    assert len(flags) == 1 and "fig4" in flags[0]
    # Within tolerance: no flag.
    steady = [_entry(fig4=1.5) for _ in range(4)] + [_entry(fig4=1.4)]
    assert flag_history_regressions(steady, window=5, tolerance=0.9) == []
    # A single entry has no trailing window to compare against.
    assert flag_history_regressions([_entry(fig4=1.0)]) == []


def test_window_bounds_how_far_back_the_mean_reaches():
    # Ancient fast entries fall outside window=2; only the recent slow
    # ones set the expectation, so the latest value passes.
    entries = (
        [_entry(fig4=9.0)] * 5 + [_entry(fig4=1.0), _entry(fig4=1.0),
                                  _entry(fig4=0.95)]
    )
    assert flag_history_regressions(entries, window=2, tolerance=0.9) == []
    assert flag_history_regressions(entries, window=7, tolerance=0.9) != []


def test_metrics_missing_from_history_get_no_verdict():
    entries = [_entry(fig4=1.5), _entry(brand_new_metric=0.1)]
    assert flag_history_regressions(entries) == []


def test_format_history_lists_entries_and_flags():
    entries = [_entry(fig4=1.5), _entry(fig4=1.0)]
    flags = flag_history_regressions(entries)
    text = format_bench_history(entries, flags)
    assert "2 entries" in text
    assert "trend regressions" in text
    assert "1.9.0" in text


def test_history_entry_flattens_every_guarded_speedup(tmp_path):
    engine = tmp_path / BENCH_ENGINE_FILENAME
    engine.write_text(json.dumps({
        "fig4_point": {"speedup": 1.7, "stats_equal": True},
        "_obs": {"points": {"fig4_point": {
            "speedup_off": 2.0, "enabled_overhead": 0.2, "stats_equal": True,
        }}},
    }))
    runtime = tmp_path / RUNTIME_BENCH_FILENAME
    runtime.write_text(json.dumps({
        "runtime_pool": {
            "results_equal": True, "pool_vs_spawn": 1.5,
            "parallel_vs_serial": 1.5, "dispatch_vs_serial": 0.9,
        },
        "_journal": {
            "results_equal": True, "speedup_off": 1.01,
            "floor_speedup_off": 1.0,
        },
    }))
    entry = bench_history_entry(engine, runtime)
    assert entry["violations"] == []
    assert entry["speedups"] == {
        "fig4_point": 1.7,
        "obs:fig4_point": 2.0,
        "runtime:pool_vs_spawn": 1.5,
        "runtime:parallel_vs_serial": 1.5,
        "runtime:dispatch_vs_serial": 0.9,
        "journal:speedup_off": 1.01,
    }
    import repro

    assert entry["engine_version"] == repro.__version__


def test_committed_history_is_clean():
    """The committed trend history parses and flags no regressions."""
    entries = load_bench_history(BENCH_HISTORY_FILENAME)
    assert entries, "BENCH_history.jsonl must hold at least the seed entry"
    assert entries[-1]["violations"] == []
    assert flag_history_regressions(entries) == []
