"""Executors and runner: serial/parallel equivalence, cache counters."""

import pytest

from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.runner import RunManifest, run_batch, run_grid
from repro.runtime.spec import RunSpec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)
_RATES = (0.02, 0.05)
_TOPOLOGIES = ("mesh_x1", "dps")


def _fig4_style_specs() -> list[RunSpec]:
    """A miniature Figure-4 sweep: topologies x rates, full column."""
    return [
        RunSpec(
            topology=name,
            workload="full_column",
            rate=rate,
            workload_params={"pattern": "uniform_random"},
            config=_CFG,
            cycles=600,
            warmup=150,
        )
        for name in _TOPOLOGIES
        for rate in _RATES
    ]


def test_parallel_equals_serial_on_fig4_style_sweep():
    specs = _fig4_style_specs()
    serial = SerialExecutor().map(specs)
    parallel = ParallelExecutor(jobs=4).map(specs)
    assert serial == parallel  # exact equality, field for field


def test_second_cached_invocation_simulates_nothing(tmp_path):
    specs = _fig4_style_specs()
    cache = ResultCache(tmp_path)
    first = run_batch(specs, executor=ParallelExecutor(jobs=4), cache=cache)
    assert first.manifest.simulated == len(specs)
    assert first.manifest.cache_hits == 0

    again = run_batch(specs, executor=ParallelExecutor(jobs=4), cache=cache)
    assert again.manifest.simulated == 0
    assert again.manifest.cache_hits == len(specs)
    assert list(again.results) == list(first.results)

    # The cache is executor-agnostic: a serial run hits it too.
    serial = run_batch(specs, executor=SerialExecutor(), cache=cache)
    assert serial.manifest.simulated == 0
    assert list(serial.results) == list(first.results)


def test_duplicate_specs_collapse_to_one_simulation():
    spec = _fig4_style_specs()[0]
    batch = run_batch([spec, spec, spec])
    assert batch.manifest.simulated == 1
    assert len(batch.results) == 3
    assert batch.results[0] == batch.results[1] == batch.results[2]


def test_progress_callback_sees_every_unique_spec(tmp_path):
    specs = _fig4_style_specs()
    cache = ResultCache(tmp_path)
    seen = []
    run_batch(specs, cache=cache,
              progress=lambda done, total, spec, cached: seen.append(
                  (done, total, cached)))
    assert [s[0] for s in seen] == [1, 2, 3, 4]
    assert all(total == 4 for _, total, _ in seen)
    assert not any(cached for _, _, cached in seen)

    seen.clear()
    run_batch(specs, cache=cache,
              progress=lambda done, total, spec, cached: seen.append(cached))
    assert seen == [True, True, True, True]


def test_modes_survive_the_parallel_path():
    specs = [
        RunSpec(topology="mesh_x1", workload="workload1_finite",
                workload_params={"duration": 1200}, config=_CFG,
                mode="drain", cycles=80_000),
        RunSpec(topology="dps", workload="hotspot64", rate=0.05,
                config=_CFG, mode="window", cycles=1500, warmup=400),
    ]
    serial = SerialExecutor().map(specs)
    parallel = ParallelExecutor(jobs=2).map(specs)
    assert serial == parallel
    assert serial[0].completion_cycle > 0
    assert len(serial[1].window_flits_per_flow) == 64


def test_parallel_jobs_default_and_validation():
    import os

    assert ParallelExecutor().jobs == (os.cpu_count() or 1)
    assert ParallelExecutor(jobs=3).jobs == 3
    with pytest.raises(ValueError):
        ParallelExecutor(jobs=0)


def _forbid_pool(monkeypatch):
    """Make any agent fork fail loudly."""

    def boom(*args, **kwargs):  # pragma: no cover - failure reporter
        raise AssertionError("no agent may be forked")

    monkeypatch.setattr(ParallelExecutor, "_fork", boom)


def test_jobs_1_degrades_to_in_process_serial(monkeypatch):
    # Worker overhead at jobs=1 was a measured 0.787x slowdown
    # (BENCH_runtime.json); the executor must not pay it.
    _forbid_pool(monkeypatch)
    specs = _fig4_style_specs()
    results = ParallelExecutor(jobs=1).map(specs)
    assert results == SerialExecutor().map(specs)


def test_single_pending_spec_degrades_to_in_process_serial(monkeypatch, tmp_path):
    # jobs >= pending batch size == 1: forking agents for one spec is
    # pure overhead, so the un-cached remainder runs in-process too.
    cache = ResultCache(tmp_path)
    specs = _fig4_style_specs()
    ParallelExecutor(jobs=1).run(specs[:-1], cache=cache)
    _forbid_pool(monkeypatch)
    outcome = ParallelExecutor(jobs=4).run(specs, cache=cache)
    assert outcome.cache_hits == len(specs) - 1
    assert outcome.simulated == 1
    assert outcome.results == SerialExecutor().map(specs)


def test_run_grid_shapes_and_manifest(tmp_path):
    cache = ResultCache(tmp_path)
    grid = run_grid(
        list(_TOPOLOGIES), list(_RATES), workload="uniform",
        cycles=500, warmup=100, config=_CFG, cache=cache,
    )
    assert set(grid.curves) == set(_TOPOLOGIES)
    assert all(len(curve) == len(_RATES) for curve in grid.curves.values())
    assert grid.manifest.total == len(_TOPOLOGIES) * len(_RATES)
    assert grid.manifest.cache_dir == str(tmp_path)
    assert grid.rates == _RATES

    again = run_grid(
        list(_TOPOLOGIES), list(_RATES), workload="uniform",
        cycles=500, warmup=100, config=_CFG, cache=cache,
    )
    assert again.manifest.simulated == 0
    assert again.curves == grid.curves


def test_manifest_merge_and_summary():
    a = RunManifest(total=4, simulated=4, cache_hits=0, elapsed_seconds=1.0,
                    executor="serial", cache_dir=None, started_at=10.0,
                    spec_hashes=("a",))
    b = RunManifest(total=4, simulated=0, cache_hits=4, elapsed_seconds=0.5,
                    executor="serial", cache_dir=None, started_at=12.0,
                    spec_hashes=("b",))
    merged = RunManifest.merge([a, b])
    assert merged.total == 8
    assert merged.simulated == 4
    assert merged.cache_hits == 4
    assert merged.spec_hashes == ("a", "b")
    assert "4 simulated" in merged.summary() and "4 cached" in merged.summary()
    assert merged.to_json()["total"] == 8


def test_sweep_named_workload_matches_legacy_callable_path():
    from repro.analysis.sweep import latency_throughput_sweep
    from repro.traffic.workloads import uniform_workload

    legacy = latency_throughput_sweep(
        "dps", uniform_workload, list(_RATES),
        cycles=600, warmup=150, config=_CFG,
    )
    named = latency_throughput_sweep(
        "dps", "uniform", list(_RATES),
        cycles=600, warmup=150, config=_CFG,
        executor=ParallelExecutor(jobs=2),
    )
    assert legacy == named


def test_experiments_accept_executor_and_cache(tmp_path):
    from repro.analysis.experiments.saturation import run_saturation

    cache = ResultCache(tmp_path)
    points = run_saturation(cycles=500, topology_names=("mesh_x1",),
                            config=_CFG, cache=cache)
    cached = run_saturation(cycles=500, topology_names=("mesh_x1",),
                            config=_CFG, cache=cache,
                            executor=ParallelExecutor(jobs=2))
    assert points == cached
    assert cache.info().entries == 2  # uniform + tornado
