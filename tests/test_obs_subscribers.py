"""One packet-event channel: every observer is a probe-bus subscriber.

The trace recorder, the injection capture and an :class:`ObsSession`
all join the simulator's one :class:`ProbeBus`, so they attach in any
order, record the same whether alone or together, and attaching one
twice records once.  The ``release`` event reports every placement the
GSF throttle defers, identically from both engines.
"""

import itertools

import pytest

from helpers import build_simulator
from repro.errors import ConfigurationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.network.trace import InjectionCapture, TraceKind, TraceRecorder
from repro.obs import ObsSession, ProbeBus
from repro.qos.pvc import PvcPolicy
from repro.topologies.registry import get_topology
from repro.traffic.workloads import workload1
from test_engine_golden import GSF_TOPOLOGIES, _gsf_flows, _pair

OBSERVERS = ("session", "recorder", "capture")
CYCLES = 1500


def _scenario():
    """Workload 1 past saturation on PVC: every trace kind occurs."""
    config = SimulationConfig(
        frame_cycles=400, seed=11, preemption_patience_cycles=4
    )
    return build_simulator("mesh_x1", workload1(), config=config)


def _make(name):
    if name == "session":
        return ObsSession(window=500, timeline=True)
    if name == "recorder":
        return TraceRecorder(capacity=100_000)
    return InjectionCapture()


def _output(name, observer):
    if name == "session":
        return (
            observer.metrics.rows,
            observer.lifecycle.records,
            observer.activity.counters(),
        )
    if name == "recorder":
        return [str(event) for event in observer.events]
    return list(observer.emissions)


def _observed(names):
    """Attach the named observers in order, run, and read each one out."""
    simulator = _scenario()
    observers = {name: _make(name) for name in names}
    for name in names:
        observers[name].attach(simulator)
    simulator.run(CYCLES)
    if "session" in observers:
        observers["session"].finalize(simulator.cycle)
    return {name: _output(name, observers[name]) for name in names}


@pytest.fixture(scope="module")
def alone():
    """Each observer's output when it is the only one attached."""
    outputs = {name: _observed([name])[name] for name in OBSERVERS}
    lines = outputs["recorder"]
    for kind in TraceKind:
        assert any(f"] {kind.value} " in line for line in lines), kind
    return outputs


@pytest.mark.parametrize(
    "order", list(itertools.permutations(OBSERVERS)), ids="-".join
)
def test_attach_order_changes_no_observer_output(order, alone):
    assert _observed(order) == alone


def test_attaching_twice_records_each_event_once(alone):
    simulator = _scenario()
    recorder, capture = TraceRecorder(capacity=100_000), InjectionCapture()
    for observer in (recorder, capture, recorder, capture):
        observer.attach(simulator)
    simulator.run(CYCLES)
    assert [str(event) for event in recorder.events] == alone["recorder"]
    assert capture.emissions == alone["capture"]
    with pytest.raises(ConfigurationError, match="one simulator"):
        recorder.attach(_scenario())


def test_a_recorder_attached_mid_run_prints_the_packets_real_hop_index():
    middle = CYCLES // 2
    full_run, late_run = _scenario(), _scenario()
    full, late = TraceRecorder(capacity=100_000), TraceRecorder(capacity=100_000)
    full.attach(full_run)
    full_run.run(CYCLES)
    late_run.run(middle)
    late.attach(late_run)
    late_run.run(CYCLES - middle)
    assert list(late.events) == [
        event for event in full.events if event.cycle >= middle
    ]
    # The late recorder saw packets already past their first hop.
    created_late = {event.pid for event in late.events_of_kind(TraceKind.CREATE)}
    assert any(
        event.pid not in created_late and event.detail != "hop=0"
        for event in late.events_of_kind(TraceKind.WIN)
    )


@pytest.mark.parametrize("cls", (ColumnSimulator, GoldenColumnSimulator))
def test_every_observer_joins_the_one_bus(cls):
    config = SimulationConfig()
    simulator = cls(
        get_topology("mecs").build(config), workload1(), PvcPolicy(), config
    )
    assert not hasattr(simulator, "trace")
    assert not hasattr(simulator, "capture")
    assert simulator._probes is None
    TraceRecorder().attach(simulator)
    bus = simulator._probes
    InjectionCapture().attach(simulator)
    ObsSession().attach(simulator)
    assert ProbeBus.of(simulator) is bus
    with pytest.raises(ConfigurationError, match="already carries"):
        ProbeBus().attach(simulator)


# -- release: GSF frame deferral, on the GSF golden matrix -------------


def _release_stream(simulator):
    stream = []
    ProbeBus.of(simulator).subscribe("release", lambda *event: stream.append(event))
    return stream


@pytest.mark.parametrize("drained", (False, True), ids=("open", "drained"))
@pytest.mark.parametrize("traffic", ("bernoulli", "bursty"))
@pytest.mark.parametrize("topology", GSF_TOPOLOGIES)
def test_both_engines_emit_one_release_per_deferral(topology, traffic, drained):
    config = SimulationConfig(frame_cycles=400, seed=9)
    simulators = _pair(
        topology, lambda: _gsf_flows(traffic, finite=drained), "gsf", config
    )
    streams = [_release_stream(simulator) for simulator in simulators]
    for simulator in simulators:
        if drained:
            simulator.run_until_drained(max_cycles=80_000)
        else:
            simulator.run(3000, warmup=750)
    (optimised, golden), (released, released_golden) = simulators, streams
    assert released == released_golden
    assert len(released) == optimised.policy.deferral_count() > 0
    assert len(released_golden) == golden.policy.deferral_count()
    frame = config.frame_cycles
    for cycle, _, _, ready_at, released_at in released:
        assert cycle < ready_at < released_at
        assert released_at % frame == 0


@pytest.mark.parametrize("topology", GSF_TOPOLOGIES)
def test_pvc_runs_emit_no_release(topology):
    config = SimulationConfig(frame_cycles=400, seed=9)
    simulators = _pair(
        topology, lambda: _gsf_flows("bernoulli", finite=False), "pvc", config
    )
    streams = [_release_stream(simulator) for simulator in simulators]
    for simulator in simulators:
        simulator.run(1500)
    assert streams == [[], []]


def test_lifecycle_records_every_release():
    config = SimulationConfig(frame_cycles=300, seed=13)
    records = []
    for simulator in _pair(
        "mecs", lambda: _gsf_flows("bursty", finite=False), "gsf", config
    ):
        stream = _release_stream(simulator)
        session = ObsSession(timeline=True)
        session.attach(simulator)
        simulator.run(4000)
        kept = [
            (cycle, pid, record["flow"], ready_at, released_at)
            for pid, record in session.lifecycle.records.items()
            for cycle, ready_at, released_at in record["releases"]
        ]
        assert stream and sorted(kept) == sorted(stream)
        records.append(session.lifecycle.records)
    assert records[0] == records[1]
