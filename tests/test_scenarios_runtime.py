"""Scenario workloads through repro.runtime: hashing, caching, executors."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.trace import InjectionCapture
from repro.qos.pvc import PvcPolicy
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.spec import (
    SCENARIO_WORKLOADS,
    WORKLOAD_BUILDERS,
    RunSpec,
    build_flows,
    execute_spec,
)
from repro.scenarios import bursty_workload, capture_to_trace, write_trace
from repro.topologies.registry import get_topology

CONFIG = SimulationConfig(frame_cycles=5000, seed=6)

PHASES = json.dumps(
    [{"cycles": 800, "rate": 0.05}, {"cycles": 800, "rate": 0.3}]
)


def scenario_specs():
    return [
        RunSpec(topology="mecs", workload="bursty", rate=0.3,
                workload_params={"on_cycles": 50, "off_cycles": 150},
                config=CONFIG, cycles=2000),
        RunSpec(topology="mecs", workload="pareto_bursty", rate=0.3,
                config=CONFIG, cycles=1500),
        RunSpec(topology="mesh_x1", workload="phased",
                workload_params={"phases": PHASES},
                config=CONFIG, cycles=1600),
        RunSpec(topology="mecs", workload="closed_loop",
                workload_params={"outstanding": 3, "think_cycles": 4},
                config=CONFIG, cycles=2000),
    ]


def test_scenario_workloads_are_registered():
    for name in SCENARIO_WORKLOADS:
        assert name in WORKLOAD_BUILDERS


def test_hashes_stable_across_param_order_and_json_round_trip():
    for spec in scenario_specs():
        reordered = RunSpec.from_json(spec.to_json())
        assert reordered.content_hash == spec.content_hash


def test_hashes_differ_by_scenario_parameters():
    base = RunSpec(topology="mecs", workload="bursty", rate=0.3,
                   workload_params={"on_cycles": 50}, config=CONFIG)
    other = RunSpec(topology="mecs", workload="bursty", rate=0.3,
                    workload_params={"on_cycles": 60}, config=CONFIG)
    assert base.content_hash != other.content_hash


def test_serial_and_parallel_execution_identical():
    specs = scenario_specs()
    serial = SerialExecutor().run(specs).results
    parallel = ParallelExecutor(jobs=2).run(specs).results
    assert list(serial) == list(parallel)


def test_results_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    spec = scenario_specs()[0]
    first = SerialExecutor().run([spec], cache=cache).results[0]
    outcome = SerialExecutor().run([spec], cache=cache)
    assert outcome.simulated == 0 and outcome.cache_hits == 1
    assert outcome.results[0] == first


def test_same_seed_same_result_object():
    spec = scenario_specs()[0]
    assert execute_spec(spec) == execute_spec(spec)


def test_spec_validation_rejects_bad_scenarios():
    with pytest.raises(ConfigurationError):  # rate forbidden
        RunSpec(topology="mecs", workload="closed_loop", rate=0.1,
                config=CONFIG)
    with pytest.raises(ConfigurationError):  # rate required
        RunSpec(topology="mecs", workload="bursty", config=CONFIG)
    with pytest.raises(ConfigurationError):  # unknown param
        RunSpec(topology="mecs", workload="bursty", rate=0.1,
                workload_params={"burst": 1}, config=CONFIG)
    with pytest.raises(ConfigurationError):  # phases validated eagerly
        RunSpec(topology="mecs", workload="phased",
                workload_params={"phases": "not json"}, config=CONFIG)
    with pytest.raises(ConfigurationError):  # hotspot target bounds
        RunSpec(topology="mecs", workload="bursty", rate=0.1,
                workload_params={"target": 64}, config=CONFIG)
    with pytest.raises(ConfigurationError):  # pattern xor target
        RunSpec(topology="mecs", workload="bursty", rate=0.1,
                workload_params={"target": 0, "pattern": "tornado"},
                config=CONFIG)


def test_replay_spec_executes_and_caches(tmp_path):
    # Record a run, then execute it as a "replay" RunSpec through the
    # runtime: results must round-trip the cache and match a direct
    # re-simulation bit for bit.
    flows = bursty_workload(0.3, on_cycles=40, off_cycles=120)
    source = ColumnSimulator(
        get_topology("mecs").build(CONFIG), flows, PvcPolicy(), CONFIG
    )
    capture = InjectionCapture()
    capture.attach(source)
    source.run(1800, warmup=300)
    path = tmp_path / "trace.jsonl"
    digest = write_trace(path, capture_to_trace(capture, source.flows))

    spec = RunSpec(
        topology="mecs", workload="replay",
        workload_params={"path": str(path), "sha256": digest},
        config=CONFIG, cycles=1800, warmup=300,
    )
    result = execute_spec(spec)
    assert result.delivered_flits == source.stats.delivered_flits
    assert result.mean_latency == source.stats.mean_latency
    assert tuple(result.window_flits_per_flow) == tuple(
        source.stats.window_flits_per_flow
    )

    cache = ResultCache(tmp_path / "cache")
    SerialExecutor().run([spec], cache=cache)
    outcome = SerialExecutor().run([spec], cache=cache)
    assert outcome.cache_hits == 1 and outcome.results[0] == result


def test_replay_spec_digest_guard(tmp_path):
    flows = bursty_workload(0.3)
    source = ColumnSimulator(
        get_topology("mecs").build(CONFIG), flows, PvcPolicy(), CONFIG
    )
    capture = InjectionCapture()
    capture.attach(source)
    source.run(600)
    path = tmp_path / "trace.jsonl"
    write_trace(path, capture_to_trace(capture, source.flows))
    spec = RunSpec(
        topology="mecs", workload="replay",
        workload_params={"path": str(path), "sha256": "f" * 64},
        config=CONFIG, cycles=600,
    )
    with pytest.raises(ConfigurationError, match="digest mismatch"):
        build_flows(spec)


def test_burst_fairness_experiment_runs(tmp_path):
    from repro.analysis.experiments.burst_fairness import (
        format_rows,
        run_burst_fairness,
        summary_rows,
    )

    cells = run_burst_fairness(
        warmup=300, window=1200, config=CONFIG,
        cache=ResultCache(tmp_path),
    )
    assert len(cells) == 8  # (live + replayed) x every registered policy
    by_key = {(cell.traffic, cell.policy): cell for cell in cells}
    # The replayed leg feeds every policy the same arrivals as the live
    # leg, so matching cells are a standing replay-fidelity check.
    for policy in ("pvc", "perflow", "noqos", "gsf"):
        live = by_key[("bursty", policy)]
        replayed = by_key[("replayed", policy)]
        assert live.delivered_flits == replayed.delivered_flits
        assert live.mean_latency == replayed.mean_latency
    text = format_rows(summary_rows(cells))
    assert "bursty" in text and "replayed" in text and "noqos" in text
    assert "gsf" in text
