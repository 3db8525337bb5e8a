"""Trace format, capture, and bit-exact record-and-replay."""

import pytest

from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.network.trace import InjectionCapture
from repro.qos.base import NoQosPolicy
from repro.qos.pvc import PvcPolicy
from repro.scenarios import (
    ScenarioTrace,
    TraceFlow,
    bursty_workload,
    capture_to_trace,
    closed_loop_workload,
    file_sha256,
    read_trace,
    replayed_workload,
    snapshot_digest,
    write_trace,
)
from repro.topologies.registry import get_topology
from repro.traffic.workloads import uniform_workload, workload1


def run_captured(flows, config, *, topology="mecs", policy=None, cycles=2500,
                 warmup=400, engine=ColumnSimulator):
    simulator = engine(
        get_topology(topology).build(config), flows,
        policy or PvcPolicy(), config,
    )
    capture = InjectionCapture()
    capture.attach(simulator)
    simulator.run(cycles, warmup=warmup)
    return simulator, capture


def replay_of(simulator, capture, config, *, topology="mecs", policy=None,
              cycles=2500, warmup=400):
    trace = capture_to_trace(capture, simulator.flows)
    replay = ColumnSimulator(
        get_topology(topology).build(config),
        replayed_workload(trace),
        policy or PvcPolicy(),
        config,
    )
    replay.run(cycles, warmup=warmup)
    return replay


class TestReplayBitExactness:
    @pytest.mark.parametrize(
        "flows_builder",
        [
            lambda: uniform_workload(0.1),
            lambda: workload1(),
            lambda: bursty_workload(0.4, on_cycles=40, off_cycles=120),
            lambda: closed_loop_workload(outstanding=4, think_cycles=9),
        ],
        ids=["uniform", "workload1", "bursty", "closed_loop"],
    )
    def test_replay_reproduces_snapshot(self, flows_builder):
        config = SimulationConfig(frame_cycles=2000, seed=13)
        source, capture = run_captured(flows_builder(), config)
        replay = replay_of(source, capture, config)
        assert replay.stats.snapshot() == source.stats.snapshot()

    def test_replay_reapplies_weight_schedules(self):
        """A phased run's weight re-programmings survive the round trip."""
        from repro.scenarios import phased_workload

        phases = [
            {"cycles": 800, "rate": 0.10},
            {"cycles": 800, "rate": 0.35,
             "weights": [6.0] + [1.0] * 7},
        ]
        config = SimulationConfig(frame_cycles=2000, seed=17)
        source, capture = run_captured(phased_workload(phases), config)
        trace = capture_to_trace(capture, source.flows)
        assert trace.flows[0].weight_changes == ((800, 6.0),)
        replay = replay_of(source, capture, config)
        assert replay.stats.snapshot() == source.stats.snapshot()
        assert replay.policy._weights[0] == 6.0

    def test_replay_under_noqos(self):
        """Replays work under any policy, not just the recording one."""
        config = SimulationConfig(frame_cycles=2000, seed=13)
        source, capture = run_captured(
            bursty_workload(0.4), config, policy=NoQosPolicy()
        )
        replay = replay_of(source, capture, config, policy=NoQosPolicy())
        assert replay.stats.snapshot() == source.stats.snapshot()

    def test_replay_of_replay_is_fixed_point(self):
        config = SimulationConfig(frame_cycles=2000, seed=5)
        source, capture = run_captured(bursty_workload(0.4), config)
        trace = capture_to_trace(capture, source.flows)
        replay = ColumnSimulator(
            get_topology("mecs").build(config),
            replayed_workload(trace), PvcPolicy(), config,
        )
        second_capture = InjectionCapture()
        second_capture.attach(replay)
        replay.run(2500, warmup=400)
        assert tuple(second_capture.emissions) == trace.emissions

    def test_capture_does_not_perturb_the_run(self):
        config = SimulationConfig(frame_cycles=2000, seed=21)
        plain = ColumnSimulator(
            get_topology("mecs").build(config), uniform_workload(0.1),
            PvcPolicy(), config,
        )
        plain.run(2000)
        captured, _ = run_captured(
            uniform_workload(0.1), config, cycles=2000, warmup=0
        )
        assert plain.stats.snapshot() == captured.stats.snapshot()

    def test_capture_is_engine_agnostic(self):
        """The capture subscribes to the probe bus, so golden records too."""
        config = SimulationConfig(frame_cycles=2000, seed=13)
        source, capture = run_captured(bursty_workload(0.4), config)
        golden, golden_capture = run_captured(
            bursty_workload(0.4), config, engine=GoldenColumnSimulator
        )
        assert len(capture) > 0
        assert golden_capture.emissions == capture.emissions
        replay = replay_of(golden, golden_capture, config)
        assert replay.stats.snapshot() == source.stats.snapshot()

    def test_drained_replay(self):
        """A finite captured run drains when replayed, at the same cycle."""
        config = SimulationConfig(frame_cycles=2000, seed=8)
        flows = closed_loop_workload(outstanding=2, requests=15)
        source = ColumnSimulator(
            get_topology("mecs").build(config), flows, PvcPolicy(), config
        )
        capture = InjectionCapture()
        capture.attach(source)
        source_end = source.run_until_drained(100_000)
        trace = capture_to_trace(capture, source.flows)
        replay = ColumnSimulator(
            get_topology("mecs").build(config),
            replayed_workload(trace), PvcPolicy(), config,
        )
        replay_end = replay.run_until_drained(100_000)
        assert replay_end == source_end
        assert replay.stats.snapshot() == source.stats.snapshot()


class TestTraceFile:
    def make_trace(self):
        config = SimulationConfig(frame_cycles=2000, seed=3)
        source, capture = run_captured(
            bursty_workload(0.3), config, cycles=1500, warmup=0
        )
        return capture_to_trace(
            capture, source.flows,
            meta={"snapshot_sha256": snapshot_digest(source.stats.snapshot())},
        )

    def test_write_read_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        digest = write_trace(path, trace)
        assert digest == file_sha256(path)
        loaded = read_trace(path, expect_sha256=digest)
        assert loaded == trace

    def test_digest_mismatch_rejected(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        write_trace(path, trace)
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            read_trace(path, expect_sha256="0" * 64)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"format": "repro-scenario-trace", "version": 99, "flows": '
            '[{"node": 0, "port": "terminal"}], "meta": {}}\n'
        )
        with pytest.raises(ConfigurationError, match="version"):
            read_trace(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ConfigurationError):
            read_trace(path)

    def test_bad_emission_line_rejected(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        write_trace(path, trace)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"c": 1}\n')
        with pytest.raises(ConfigurationError, match="line"):
            read_trace(path)

    def test_trace_validation(self):
        flows = (TraceFlow(node=0, port="terminal"),)
        with pytest.raises(ConfigurationError):
            ScenarioTrace(flows=(), emissions=(), meta={})
        with pytest.raises(ConfigurationError):
            ScenarioTrace(flows=flows, emissions=((0, 5, 1, 1),), meta={})
        with pytest.raises(ConfigurationError):  # cycles must not decrease
            ScenarioTrace(
                flows=flows, emissions=((9, 0, 1, 1), (3, 0, 1, 1)), meta={}
            )
