"""RunSpec: canonical serialisation and content-hash stability."""

import os
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.runtime.spec import (
    POLICIES,
    SPEC_SCHEMA_VERSION,
    WORKLOAD_BUILDERS,
    RunResult,
    RunSpec,
    build_flows,
    execute_spec,
)

_CFG = SimulationConfig(frame_cycles=2000, seed=4)


def _spec(**overrides) -> RunSpec:
    base = dict(
        topology="dps",
        workload="full_column",
        rate=0.05,
        workload_params={"pattern": "tornado"},
        config=_CFG,
        cycles=800,
        warmup=200,
    )
    base.update(overrides)
    return RunSpec(**base)


def test_identical_specs_share_a_hash():
    assert _spec().content_hash == _spec().content_hash
    assert _spec() == _spec()


def test_param_dict_order_is_irrelevant():
    a = RunSpec(topology="dps", workload="single_flow", rate=0.9,
                workload_params={"node": 0, "dst": 7}, config=_CFG, cycles=500)
    b = RunSpec(topology="dps", workload="single_flow", rate=0.9,
                workload_params={"dst": 7, "node": 0}, config=_CFG, cycles=500)
    assert a.content_hash == b.content_hash


@pytest.mark.parametrize(
    "override",
    [
        {"topology": "mecs"},
        {"workload": "uniform"},
        {"rate": 0.07},
        {"workload_params": {"pattern": "uniform_random"}},
        {"policy": "perflow"},
        {"config": SimulationConfig(frame_cycles=2000, seed=5)},
        {"mode": "window"},
        {"cycles": 801},
        {"warmup": 201},
    ],
)
def test_any_field_change_changes_the_hash(override):
    assert _spec(**override).content_hash != _spec().content_hash


def test_json_round_trip_preserves_spec_and_hash():
    spec = _spec(topology_params={})
    clone = RunSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.content_hash == spec.content_hash


def test_canonical_json_is_sorted_and_compact():
    text = _spec().canonical_json()
    assert ": " not in text and ", " not in text
    import json

    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_hash_is_stable_across_process_boundaries():
    """The cache key must not depend on interpreter state (e.g. hash
    randomisation): a fresh process must derive the same digest."""
    spec = _spec()
    code = (
        "from repro.network.config import SimulationConfig\n"
        "from repro.runtime.spec import RunSpec\n"
        "spec = RunSpec(topology='dps', workload='full_column', rate=0.05,\n"
        "               workload_params={'pattern': 'tornado'},\n"
        "               config=SimulationConfig(frame_cycles=2000, seed=4),\n"
        "               cycles=800, warmup=200)\n"
        "print(spec.content_hash)\n"
    )
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    )
    assert out.stdout.strip() == spec.content_hash


@pytest.mark.parametrize(
    "kwargs",
    [
        {"topology": "nope"},
        {"workload": "nope"},
        {"policy": "nope"},
        {"mode": "nope"},
        {"cycles": 0},
        {"warmup": -1},
        {"workload_params": {"pattern": [1, 2]}},
    ],
)
def test_invalid_specs_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        _spec(**kwargs)


def test_every_registered_workload_builds_flows(tmp_path):
    from repro.scenarios import ScenarioTrace, TraceFlow, write_trace

    trace_path = tmp_path / "tiny.jsonl"
    digest = write_trace(
        trace_path,
        ScenarioTrace(
            flows=(TraceFlow(node=0, port="terminal"),),
            emissions=((0, 0, 1, 1),),
            meta={},
        ),
    )
    required = {
        "phased": {"phases": '[{"cycles": 500, "rate": 0.1}]'},
        "replay": {"path": str(trace_path), "sha256": digest},
    }
    for name, entry in WORKLOAD_BUILDERS.items():
        params = {"duration": 1000} if name.endswith("_finite") else {}
        params.update(required.get(name, {}))
        rate = None if entry.rate == "forbidden" else 0.05
        spec = RunSpec(topology="mesh_x1", workload=name, rate=rate,
                       workload_params=params, config=_CFG, cycles=100)
        assert build_flows(spec), name


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workload": "workload1", "rate": 0.05, "workload_params": {}},
        {"workload": "uniform", "rate": None, "workload_params": {}},
        {"workload": "workload1_finite", "rate": None, "workload_params": {}},
        {"workload": "full_column", "workload_params": {"pattren": "tornado"}},
        {"workload": "full_column", "workload_params": {"pattern": "tornadoo"}},
    ],
)
def test_workload_contract_violations_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        _spec(**kwargs)


def test_policy_registry_covers_the_public_policies():
    assert set(POLICIES) == {"pvc", "perflow", "noqos", "gsf"}


def test_run_result_json_round_trip():
    result = execute_spec(_spec(cycles=400, warmup=100))
    clone = RunResult.from_json(result.to_json())
    assert clone == result


def test_result_deferrals_are_the_policys_deferral_count():
    from repro.network.engine import ColumnSimulator
    from repro.qos.registry import create_policy
    from repro.scenarios import snapshot_digest
    from repro.topologies.registry import get_topology
    from repro.traffic.workloads import hotspot_all_injectors

    for policy in ("gsf", "pvc"):
        spec = RunSpec(topology="mecs", workload="hotspot64", rate=0.05,
                       policy=policy, config=_CFG, mode="window",
                       cycles=600, warmup=150)
        result = execute_spec(spec)
        simulator = ColumnSimulator(
            get_topology("mecs").build(_CFG), hotspot_all_injectors(0.05),
            create_policy(policy), _CFG,
        )
        stats = simulator.run_window(150, 600)
        assert result.snapshot_sha256 == snapshot_digest(stats.snapshot())
        if policy == "gsf":
            assert result.deferrals == simulator.policy.deferral_count() > 0
        else:
            assert result.deferrals == 0


def _replay_of(source: str, policy: str = "pvc") -> RunSpec:
    return RunSpec(topology="mecs", workload="replay",
                   workload_params={"source": source}, policy=policy,
                   config=_CFG, mode="window", cycles=600, warmup=150)


def test_a_replay_of_a_spec_reproduces_its_source():
    live = RunSpec(topology="mecs", workload="bursty", rate=0.4,
                   workload_params={"target": 0}, config=_CFG,
                   mode="window", cycles=600, warmup=150)
    replay = _replay_of(live.canonical_json())
    assert execute_spec(replay).snapshot_sha256 == (
        execute_spec(live).snapshot_sha256
    )
    under_gsf = _replay_of(live.canonical_json(), "gsf")
    assert replay.content_hash != under_gsf.content_hash
    with pytest.raises(ConfigurationError, match="execute_spec"):
        build_flows(replay)  # the capture is execute_spec's to take


def test_a_replay_source_is_validated_at_construction(tmp_path):
    live = RunSpec(topology="mecs", workload="bursty", rate=0.4,
                   config=_CFG, cycles=600)
    observed = RunSpec(topology="mecs", workload="bursty", rate=0.4,
                       config=_CFG, cycles=600, obs={"window": 100})
    nested = _replay_of(live.canonical_json()).canonical_json()
    for source, reason in (
        ("{not json", "not a RunSpec"),
        ("[1, 2]", "not a RunSpec"),
        (f'{{"schema": {SPEC_SCHEMA_VERSION}}}', "not a RunSpec"),
        (observed.canonical_json(), "obs"),
        (nested, "be no replay"),
    ):
        with pytest.raises(ConfigurationError, match=reason):
            _replay_of(source)
    with pytest.raises(ConfigurationError, match=r"'path' \+ 'sha256', or"):
        RunSpec(topology="mecs", workload="replay", config=_CFG,
                workload_params={"source": live.canonical_json(),
                                 "path": str(tmp_path / "t.jsonl"),
                                 "sha256": "0" * 64})
    with pytest.raises(ConfigurationError, match=r"'path' \+ 'sha256', or"):
        RunSpec(topology="mecs", workload="replay", config=_CFG,
                workload_params={"path": str(tmp_path / "t.jsonl")})


def test_execute_spec_matches_direct_engine_run():
    from repro.network.engine import ColumnSimulator
    from repro.qos.pvc import PvcPolicy
    from repro.topologies.registry import get_topology
    from repro.traffic.patterns import tornado
    from repro.traffic.workloads import full_column_workload

    spec = _spec(cycles=600, warmup=150)
    result = execute_spec(spec)
    simulator = ColumnSimulator(
        get_topology("dps").build(_CFG),
        full_column_workload(0.05, pattern=tornado),
        PvcPolicy(),
        _CFG,
    )
    stats = simulator.run(600, warmup=150)
    assert result.mean_latency == stats.mean_latency
    assert result.delivered_flits == stats.delivered_flits
    assert result.preemption_events == stats.preemption_events
