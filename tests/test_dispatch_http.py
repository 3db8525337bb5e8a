"""The HTTP transport: a real broker server on localhost, stdlib-only."""

import threading

import pytest

from repro.dispatch import (
    Broker,
    BrokerServer,
    DispatchExecutor,
    HttpTransport,
    WorkerAgent,
)
from repro.errors import DispatchError, TransportError
from repro.network.config import SimulationConfig
from repro.resilience import RetryPolicy
from repro.runtime.cache import payload_sha256
from repro.runtime.spec import RunSpec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)

_FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)


def _specs(count=2, cycles=250):
    return [
        RunSpec(topology="mesh_x1", workload="uniform",
                rate=0.03 + 0.01 * index, config=_CFG,
                cycles=cycles, warmup=cycles // 4)
        for index in range(count)
    ]


def test_worker_drains_an_http_broker_end_to_end():
    specs = _specs()
    with BrokerServer(Broker(lease_seconds=30.0)) as server:
        transport = HttpTransport(server.url)
        assert transport.call("ping", {})["ok"]
        transport.call(
            "submit",
            {"specs": [{"spec": s.to_json(), "label": s.label()}
                       for s in specs]},
        )
        agent = WorkerAgent(HttpTransport(server.url), worker_id="w-http")
        counters = agent.run(max_idle=1, poll_seconds=0.01)
        assert counters["completed"] == len(specs)
        response = transport.call("results", {})
        assert response["pending"] == 0 and not response["failures"]
        for entry in response["results"]:
            assert payload_sha256(entry["result"]) == entry["payload_sha256"]
            assert entry["result"]["spec_hash"] == entry["spec_hash"]


def test_dispatch_executor_over_http_matches_serial(tmp_path):
    from repro.runtime.executor import SerialExecutor

    specs = _specs()
    serial = SerialExecutor().map(specs)
    with BrokerServer(Broker(lease_seconds=30.0)) as server:
        worker = WorkerAgent(HttpTransport(server.url), worker_id="w-bg")
        thread = threading.Thread(
            target=worker.run,
            kwargs={"max_tasks": len(specs), "max_idle": 2000,
                    "poll_seconds": 0.01},
            daemon=True,
        )
        thread.start()
        with DispatchExecutor(server.url) as ex:
            outcome = ex.run(specs)
        thread.join(timeout=10.0)
    assert outcome.results == serial
    assert outcome.dispatch["completions"] == len(specs)
    assert not outcome.degraded


def test_protocol_errors_map_to_4xx_and_dispatch_error():
    with BrokerServer(Broker()) as server:
        transport = HttpTransport(server.url)
        with pytest.raises(DispatchError):
            transport.call("complete", {"spec_hash": "deadbeef"})
        with pytest.raises(DispatchError):
            transport.call("bogus", {})


def test_unreachable_server_exhausts_retries_to_transport_error():
    transport = HttpTransport("http://127.0.0.1:9", retry=_FAST_RETRY)
    with pytest.raises(TransportError):
        transport.call("ping", {})
