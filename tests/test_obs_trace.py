"""Chrome trace exporter: event structure, balance, validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.obs import (
    ObsSession,
    build_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.chrometrace import ENGINE_PID, PACKETS_PID
from repro.obs.collect import LifecycleCollector
from repro.qos.pvc import PvcPolicy
from repro.topologies.registry import get_topology
from repro.traffic.workloads import full_column_workload


def observed_run(cycles=1500, rate=0.25):
    config = SimulationConfig(frame_cycles=1000, seed=9)
    build = get_topology("mecs").build(config)
    simulator = ColumnSimulator(
        build, full_column_workload(rate), PvcPolicy(), config
    )
    session = ObsSession(window=500, timeline=True)
    session.attach(simulator)
    simulator.run(cycles)
    session.finalize(simulator.cycle)
    return session


def test_packet_spans_balance_and_validate(tmp_path):
    session = observed_run()
    events = build_trace_events(
        session.lifecycle, session.activity, flow_labels=session.flow_labels
    )
    path = tmp_path / "t.trace.json"
    write_chrome_trace(path, events)
    document = validate_chrome_trace(path)  # raises on any violation
    parsed = document["traceEvents"]
    begins = [e for e in parsed if e.get("ph") == "b"]
    ends = [e for e in parsed if e.get("ph") == "e"]
    assert len(begins) == len(ends) == len(session.lifecycle.records)
    # Delivered packets carry their latency on the end event.
    latencies = [e["args"]["latency"] for e in ends if "latency" in e["args"]]
    assert latencies and all(lat >= 0 for lat in latencies)
    # One thread-name metadata row per flow in the packets process.
    thread_names = [
        e for e in parsed
        if e["ph"] == "M" and e["name"] == "thread_name"
        and e["pid"] == PACKETS_PID
    ]
    assert len(thread_names) == len(session.flow_labels)


def test_engine_process_has_skip_spans(tmp_path):
    session = observed_run(cycles=4000, rate=0.01)  # idle-heavy: skips
    assert session.activity.skips
    events = build_trace_events(
        session.lifecycle, session.activity, flow_labels=session.flow_labels
    )
    spans = [e for e in events if e.get("ph") == "X"]
    assert len(spans) == len(session.activity.skips)
    assert all(e["pid"] == ENGINE_PID and e["dur"] > 0 for e in spans)
    frames = [
        e for e in events
        if e.get("ph") == "i" and e.get("cat") == "engine"
    ]
    assert len(frames) == len(session.activity.frames) > 0


def test_in_flight_packet_closes_after_last_event():
    lifecycle = LifecycleCollector()
    lifecycle.on_admit(5, 0, 0, 1, 2, 4, False)
    lifecycle.on_inject(7, 0, 0, "inj", 0)
    lifecycle.on_hop(9, 0, 0, 3, "MS", 4, False, 0)  # never delivered
    events = build_trace_events(lifecycle, None, flow_labels=["f0"])
    end = next(e for e in events if e.get("ph") == "e")
    assert end["ts"] == 10  # one past the last seen event
    assert end["args"] == {"in_flight": True}
    assert not any(e["pid"] == ENGINE_PID for e in events)


def test_activity_none_skips_engine_process(tmp_path):
    lifecycle = LifecycleCollector()
    lifecycle.on_admit(0, 0, 0, 0, 1, 2, False)
    lifecycle.on_deliver(4, 0, 0, 1, 2, 4)
    path = tmp_path / "t.trace.json"
    write_chrome_trace(
        path, build_trace_events(lifecycle, None, flow_labels=["f0"])
    )
    document = validate_chrome_trace(path)
    assert all(
        e["pid"] == PACKETS_PID for e in document["traceEvents"]
    )


def test_validate_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.trace.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(path)


def test_validate_rejects_empty_and_malformed_events(tmp_path):
    path = tmp_path / "t.trace.json"
    path.write_text(json.dumps({"traceEvents": []}))
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(path)
    path.write_text(json.dumps({"traceEvents": [{"ph": "i"}]}))
    with pytest.raises(ConfigurationError, match="missing"):
        validate_chrome_trace(path)


def test_validate_rejects_unbalanced_async(tmp_path):
    path = tmp_path / "t.trace.json"
    begin = {
        "name": "pkt", "cat": "packet", "ph": "b", "id": "0",
        "pid": 1, "tid": 0, "ts": 0,
    }
    path.write_text(json.dumps({"traceEvents": [begin]}))
    with pytest.raises(ConfigurationError, match="unbalanced"):
        validate_chrome_trace(path)
    end = dict(begin, ph="e")
    path.write_text(json.dumps({"traceEvents": [end, begin]}))
    with pytest.raises(ConfigurationError, match="end before begin"):
        validate_chrome_trace(path)
