"""DispatchExecutor: serial equivalence, fault recovery, degradation."""

import pytest

from repro.dispatch import DispatchExecutor
from repro.errors import ExecutionFailed
from repro.network.config import SimulationConfig
from repro.resilience import Fault, FaultPlan, RetryPolicy
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SerialExecutor
from repro.runtime.spec import RunSpec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)

_FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _specs(count=3, cycles=250):
    return [
        RunSpec(topology="mesh_x1", workload="uniform",
                rate=0.03 + 0.01 * index, config=_CFG,
                cycles=cycles, warmup=cycles // 4)
        for index in range(count)
    ]


def test_local_dispatch_matches_the_serial_reference():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    with DispatchExecutor(jobs=2) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.simulated == len(specs)
    assert outcome.dispatch["submitted"] == len(specs)
    assert outcome.dispatch["completions"] == len(specs)
    assert outcome.dispatch["degraded_specs"] == 0
    assert not outcome.degraded


def test_cached_specs_never_reach_the_broker(tmp_path):
    specs = _specs(2)
    cache = ResultCache(tmp_path / "cache")
    with DispatchExecutor(jobs=2) as ex:
        first = ex.run(specs, cache=cache)
        second = ex.run(specs, cache=cache)
    assert first.results == second.results
    assert second.cache_hits == len(specs)
    assert second.simulated == 0
    assert second.dispatch.get("submitted", 0) == 0


def test_directory_target_persists_result_artifacts(tmp_path):
    specs = _specs(2)
    store = tmp_path / "store"
    with DispatchExecutor(str(store), jobs=2) as ex:
        outcome = ex.run(specs)
    assert len(outcome.results) == 2
    paths = sorted(store.glob("*.json"))
    assert [p.stem for p in paths] == sorted(s.content_hash for s in specs)


def test_vanished_workers_task_lands_on_another_worker():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="vanish", faults=(Fault(kind="worker_vanish", at=0),)
    )
    with DispatchExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
        counters = dict(ex.broker.counters)
        fired = ex.injector.summary()
    assert outcome.results == serial  # hash-identical to the serial answer
    assert fired.get("worker_vanish") == 1
    # The abandoned lease expired (via the manual clock) and the task
    # was requeued onto a surviving worker — exactly once.
    assert counters["leases_expired"] == 1
    assert counters["requeues"] == 1
    assert counters["leases_granted"] == len(specs) + 1


def test_every_worker_vanishing_recruits_a_replacement():
    specs = _specs(2)
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="wipeout",
        faults=(Fault(kind="worker_vanish", at=0),
                Fault(kind="worker_vanish", at=1)),
    )
    with DispatchExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
        counters = dict(ex.broker.counters)
    assert outcome.results == serial
    assert counters.get("recruited_agents", 0) >= 1


def test_duplicate_result_delivery_is_absorbed():
    specs = _specs(2)
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="dup", faults=(Fault(kind="duplicate_result", at=0),)
    )
    with DispatchExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.dispatch["duplicate_results"] == 1
    assert outcome.dispatch["completions"] == len(specs)


def test_dropped_and_delayed_calls_are_retried():
    specs = _specs(2)
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="lossy",
        faults=(Fault(kind="drop_request", at=1),
                Fault(kind="delay_response", at=3, seconds=0.01)),
    )
    with DispatchExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
        fired = ex.injector.summary()
    assert outcome.results == serial
    assert fired == {"drop_request": 1, "delay_response": 1}
    assert outcome.dispatch["completions"] == len(specs)
    assert outcome.dispatch.get("leases_expired", 0) == 0


def test_partitioned_worker_loses_its_lease_to_expiry():
    # Calls 2-5 are all dropped: the first agent's heartbeat exhausts
    # its transport retries, so it is cut off holding a lease.
    specs = _specs(2)
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="cut", faults=(Fault(kind="partition_worker", at=2, attempts=4),)
    )
    with DispatchExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.dispatch["leases_expired"] == 1
    assert outcome.dispatch["lease_clock_advances"] >= 1
    assert outcome.failures == [] and not outcome.degraded


def test_unreachable_broker_degrades_to_the_local_pool():
    specs = _specs(2)
    serial = SerialExecutor().map(specs)
    with DispatchExecutor(
        "http://127.0.0.1:9", jobs=2, retry=_FAST_RETRY
    ) as ex:
        outcome = ex.run(specs)
    assert outcome.degraded
    assert outcome.dispatch["degraded_specs"] == len(specs)
    assert outcome.results == serial


def test_spec_errors_exhaust_retries_and_raise_execution_failed(monkeypatch):
    def boom(spec):
        raise RuntimeError("synthetic execution failure")

    monkeypatch.setattr("repro.runtime.executor.execute_spec", boom)
    specs = _specs(2)
    ex = DispatchExecutor(
        jobs=2, retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
    )
    with ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(specs)
    error = excinfo.value
    assert len(error.failures) == 2
    assert all(record.kind == "error" for record in error.failures)
    assert all(not record.retried for record in error.failures)
    assert "synthetic execution failure" in error.failures[0].detail
    assert error.outcome is not None
    assert error.outcome.dispatch["task_retries"] == 2
    assert error.outcome.dispatch["failed_tasks"] == 2
    # The outcome keeps every attempt of both specs, retried or not.
    assert [record.retried for record in error.outcome.failures] == [
        True, False, True, False,
    ]


def test_dispatch_counters_are_per_batch_deltas():
    with DispatchExecutor(jobs=2) as ex:
        ex.run(_specs(3))
        second = ex.run(_specs(2, cycles=300))
    # The broker is cumulative across batches; the outcome is not.
    assert second.dispatch["submitted"] == 2
    assert second.dispatch["completions"] == 2
