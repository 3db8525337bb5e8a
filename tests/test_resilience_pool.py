"""Forked agents under injected faults: retry, timeout, degradation."""

import multiprocessing

import pytest

from repro.errors import ExecutionFailed
from repro.network.config import SimulationConfig
from repro.resilience import Fault, FaultInjector, FaultPlan, RetryPolicy
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
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, faults=FaultInjector(plan)) as ex:
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
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, faults=FaultInjector(plan)) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.worker_deaths == 1
    assert [(f.kind, f.attempt, f.retried) for f in outcome.failures] == [
        ("crash", 0, True),
    ]


def test_a_partitioned_forked_agent_reads_as_a_crash():
    # Every call on task 1's lease is lost: the agent gives the lease up
    # and exits, so the parent charges the lease as a crash.
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(name="cut", faults=(Fault(kind="partition_worker", at=1),))
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, faults=FaultInjector(plan)) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.worker_deaths == 1
    assert [(f.kind, f.attempt, f.retried) for f in outcome.failures] == [
        ("crash", 0, True),
    ]


def test_dropped_and_delayed_calls_cost_a_forked_agent_nothing():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    injector = FaultInjector(FaultPlan(
        name="lossy",
        faults=(Fault(kind="drop_request", at=0),
                Fault(kind="delay_response", at=1, seconds=0.01)),
    ))
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, faults=injector) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert injector.summary() == {"drop_request": 1, "delay_response": 1}
    assert outcome.failures == [] and outcome.worker_deaths == 0


def test_a_forked_agents_duplicate_completion_is_absorbed():
    # Task 0's completion arrives twice.  The replay may land after its
    # batch was collected, so the next batch must run through it.
    specs = _specs(3)
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(name="dup", faults=(Fault(kind="duplicate_result", at=0),))
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, faults=FaultInjector(plan)) as ex:
        first = ex.run(specs[:1])
        second = ex.run(specs[1:])
        counters = dict(ex._broker.counters)
    assert first.results + second.results == serial
    assert first.failures == second.failures == []
    assert counters["completions"] == len(specs)  # ingested once each
    assert counters["duplicate_results"] <= 1


def test_hung_worker_is_killed_by_the_watchdog_and_the_spec_retried():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="hang", faults=(Fault(kind="worker_hang", at=0, seconds=30.0),)
    )
    with ParallelExecutor(
        jobs=2, retry=_FAST_RETRY, timeout=0.75, faults=FaultInjector(plan)
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
        faults=FaultInjector(plan),
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
        jobs=2, retry=RetryPolicy(max_attempts=2), faults=FaultInjector(plan)
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
        faults=FaultInjector(plan),
    ) as ex:
        outcome = ex.run(specs)
    assert outcome.degraded
    assert outcome.worker_deaths == 4  # max(3, 2 * jobs)
    # On the in-process agent a stamped kill reads as a vanish, and a
    # lease is stamped once per attempt, so the regranted lease runs.
    assert outcome.results == serial


def test_watchdog_kills_exhaust_retries_instead_of_degrading():
    # Every attempt of both specs hangs past the deadline.  Those kills
    # are the deadline working: degrading would finish the batch on an
    # in-process agent, where no deadline holds and a hung spec hangs
    # the parent.  So the retries run out and the batch fails.
    plan = FaultPlan(
        name="stuck",
        faults=tuple(
            Fault(kind="worker_hang", at=serial, attempts=3, seconds=30.0)
            for serial in (0, 1)
        ),
    )
    with ParallelExecutor(
        jobs=2, retry=_FAST_RETRY, timeout=0.3, faults=FaultInjector(plan)
    ) as ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(_specs())
    outcome = excinfo.value.outcome
    assert outcome.timeouts == 6 and not outcome.degraded
    assert [f.kind for f in excinfo.value.failures] == ["timeout", "timeout"]


def test_close_zeroes_the_death_count_toward_degradation():
    # The first batch degrades.  After close() the next batch's single
    # agent death is its first, not its fifth.
    plan = FaultPlan(
        name="storm-then-one",
        faults=(Fault(kind="worker_kill", at=0, attempts=10),
                Fault(kind="worker_kill", at=1, attempts=10),
                Fault(kind="worker_kill", at=2)),
    )
    with ParallelExecutor(
        jobs=2,
        retry=RetryPolicy(max_attempts=10, backoff_base=0.0, jitter=0.0),
        faults=FaultInjector(plan),
    ) as ex:
        assert ex.run(_specs()).degraded
        ex.close()
        outcome = ex.run(_specs(3))
    assert outcome.worker_deaths == 1 and not outcome.degraded
    assert outcome.results == SerialExecutor().map(_specs(3))


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
        jobs=2, retry=RetryPolicy(max_attempts=2), faults=FaultInjector(plan)
    ) as ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(_specs(3))
    error = excinfo.value
    # The error names the permanent failures; the outcome keeps them all.
    assert error.failures == [
        record for record in error.outcome.failures if not record.retried
    ]
    assert error.outcome.results == []
