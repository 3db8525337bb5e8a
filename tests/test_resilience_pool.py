"""Forked agents under injected faults: retry, timeout, degradation."""

import multiprocessing

import pytest

from repro.errors import ExecutionFailed
from repro.network.config import SimulationConfig
from repro.resilience import Fault, FaultPlan, RetryPolicy
from repro.runtime import executor as executor_module
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.spec import RunSpec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)

#: Backoff tuned for tests: retries are immediate, determinism intact.
_FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _agents_since(before):
    """Forked children that were not alive at ``before``."""
    return set(multiprocessing.active_children()) - before


def _specs(count=2, cycles=300):
    return [
        RunSpec(topology="mesh_x1", workload="uniform",
                rate=0.03 + 0.01 * index, config=_CFG,
                cycles=cycles, warmup=cycles // 4)
        for index in range(count)
    ]


def test_worker_kill_is_retried_to_the_serial_answer():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(name="kill", faults=(Fault(kind="worker_kill", at=0),))
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.worker_deaths == 1
    assert outcome.retries == 1
    assert [f.kind for f in outcome.failures] == ["crash"]
    assert outcome.failures[0].retried


def test_a_vanished_forked_agent_reads_as_a_crash():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(name="gone", faults=(Fault(kind="worker_vanish", at=1),))
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.worker_deaths == 1
    assert [(f.kind, f.attempt, f.retried) for f in outcome.failures] == [
        ("crash", 0, True),
    ]


def test_hung_worker_is_killed_by_the_watchdog_and_the_spec_retried():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="hang", faults=(Fault(kind="worker_hang", at=0, seconds=30.0),)
    )
    with ParallelExecutor(
        jobs=2, retry=_FAST_RETRY, timeout=0.75, fault_plan=plan
    ) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.timeouts == 1
    assert [f.kind for f in outcome.failures] == ["timeout"]


def test_exhausted_retries_raise_execution_failed_with_partial_outcome():
    specs = _specs()
    plan = FaultPlan(
        name="err", faults=(Fault(kind="spec_error", at=0, attempts=5),)
    )
    with ParallelExecutor(
        jobs=2,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        fault_plan=plan,
    ) as ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(specs)
    error = excinfo.value
    assert [f.kind for f in error.failures] == ["error"]
    assert not error.failures[0].retried
    assert "InjectedFault" in error.failures[0].detail
    # The rest of the batch completed before the failure surfaced.
    assert error.outcome is not None and error.outcome.simulated == 1
    # The outcome keeps every attempt: 0 (retried), then 1 (permanent).
    assert [r.retried for r in error.outcome.failures] == [True, False]


def test_a_spec_that_kills_its_worker_every_attempt_ends_as_a_crash():
    # A dead agent's lease is charged against the retry budget, so the
    # spec cannot be requeued for free forever.
    plan = FaultPlan(
        name="killer", faults=(Fault(kind="worker_kill", at=0, attempts=5),)
    )
    with ParallelExecutor(
        jobs=2, retry=RetryPolicy(max_attempts=2), fault_plan=plan
    ) as ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(_specs())
    outcome = excinfo.value.outcome
    assert [(f.kind, f.attempt, f.retried) for f in outcome.failures] == [
        ("crash", 0, True), ("crash", 1, False),
    ]
    assert [(f.kind, f.attempt) for f in excinfo.value.failures] == [
        ("crash", 1),
    ]
    assert outcome.simulated == 1
    assert outcome.worker_deaths == 2


def test_repeated_deaths_degrade_to_in_process_and_still_finish():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="storm",
        faults=(Fault(kind="worker_kill", at=0, attempts=10),
                Fault(kind="worker_kill", at=1, attempts=10)),
    )
    with ParallelExecutor(
        jobs=2,
        retry=RetryPolicy(max_attempts=10, backoff_base=0.0, jitter=0.0),
        fault_plan=plan,
    ) as ex:
        outcome = ex.run(specs)
    assert outcome.degraded
    assert outcome.worker_deaths == 4  # max(3, 2 * jobs)
    assert outcome.results == serial  # in-process path skips kill faults


def test_keyboard_interrupt_force_closes_the_pool(monkeypatch):
    before = set(multiprocessing.active_children())
    with ParallelExecutor(jobs=2) as ex:
        ex.run(_specs(cycles=200))
        agents = _agents_since(before)
        assert len(agents) == 2

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor_module, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ex.run(_specs(cycles=250))
        assert not any(agent.is_alive() for agent in agents)
        monkeypatch.undo()
        # A later run forks new agents cleanly.
        assert ex.run(_specs(cycles=250)).simulated == 2


def test_pool_workers_persist_across_batches():
    before = set(multiprocessing.active_children())
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY) as ex:
        first = ex.run(_specs(cycles=200))
        agents = _agents_since(before)
        assert len(agents) == 2 and first.simulated == 2
        second = ex.run(_specs(cycles=250))
        assert _agents_since(before) == agents  # same processes, same pids
        assert second.simulated == 2
        assert second.worker_deaths == 0 and second.retries == 0
    assert not any(agent.is_alive() for agent in agents)


def test_pool_validation_and_outcome_properties():
    with pytest.raises(ValueError):
        ParallelExecutor(jobs=0)
    plan = FaultPlan(
        name="err", faults=(Fault(kind="spec_error", at=1, attempts=5),)
    )
    with ParallelExecutor(
        jobs=2, retry=RetryPolicy(max_attempts=2), fault_plan=plan
    ) as ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(_specs(3))
    error = excinfo.value
    # The error names the permanent failures; the outcome keeps them all.
    assert error.failures == [
        record for record in error.outcome.failures if not record.retried
    ]
    assert error.outcome.results == []
