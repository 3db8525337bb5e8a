"""Broker lease semantics: expiry, idempotent ingestion, digest checks."""

import pytest

from repro.dispatch import Broker, ManualClock, spec_hash_of
from repro.errors import DispatchError
from repro.network.config import SimulationConfig
from repro.resilience.policy import RetryPolicy
from repro.runtime.cache import payload_sha256
from repro.runtime.spec import RunSpec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)


def _specs(count=1, cycles=200):
    return [
        RunSpec(topology="mesh_x1", workload="uniform",
                rate=0.03 + 0.01 * index, config=_CFG,
                cycles=cycles, warmup=cycles // 4)
        for index in range(count)
    ]


def _broker(**kwargs):
    kwargs.setdefault("clock", ManualClock())
    kwargs.setdefault("lease_seconds", 10.0)
    return Broker(**kwargs)


def _submit(broker, specs):
    return broker.handle(
        "submit",
        {"specs": [{"spec": s.to_json(), "label": s.label()} for s in specs]},
    )


def _ok_payload(spec_hash, lease):
    """A verifiable completion without running a simulation."""
    result = {"spec_hash": spec_hash, "rows": [1, 2, 3]}
    return {
        "spec_hash": spec_hash,
        "lease": lease,
        "status": "ok",
        "result": result,
        "payload_sha256": payload_sha256(result),
    }


def test_spec_hash_of_matches_runspec_content_hash():
    spec = _specs()[0]
    assert spec_hash_of(spec.to_json()) == spec.content_hash


def test_submit_is_idempotent_on_content_hash():
    broker = _broker()
    specs = _specs(2)
    first = _submit(broker, specs)
    assert (first["accepted"], first["known"]) == (2, 0)
    second = _submit(broker, specs)
    assert (second["accepted"], second["known"]) == (0, 2)
    assert broker.counters["submitted"] == 2


def test_claim_heartbeat_complete_roundtrip():
    broker = _broker()
    spec = _specs()[0]
    _submit(broker, [spec])
    task = broker.handle("claim", {"worker": "w0"})["task"]
    assert task["spec_hash"] == spec.content_hash
    assert task["attempt"] == 0
    assert broker.handle(
        "heartbeat", {"spec_hash": task["spec_hash"], "lease": task["lease"]}
    )["ok"]
    done = broker.handle(
        "complete", _ok_payload(task["spec_hash"], task["lease"])
    )
    assert done == {"ok": True}
    response = broker.handle("results", {"hashes": [spec.content_hash]})
    assert response["pending"] == 0
    assert response["results"][0]["spec_hash"] == spec.content_hash
    assert broker.counters["completions"] == 1
    assert broker.handle("status", {})["counts"]["done"] == 1


def test_expired_lease_is_requeued_exactly_once():
    broker = _broker()
    spec = _specs()[0]
    _submit(broker, [spec])
    task = broker.handle("claim", {"worker": "w0"})["task"]
    broker.clock.advance(11.0)
    broker.handle("status", {})  # any call runs the lazy expirer
    assert broker.counters["leases_expired"] == 1
    assert broker.counters["requeues"] == 1
    broker.handle("status", {})  # a requeued task cannot expire again
    assert broker.counters["leases_expired"] == 1
    reclaimed = broker.handle("claim", {"worker": "w1"})["task"]
    assert reclaimed["spec_hash"] == task["spec_hash"]
    assert reclaimed["lease"] != task["lease"]
    assert reclaimed["lease_index"] == task["lease_index"] + 1


def test_heartbeat_extends_the_lease():
    broker = _broker()
    _submit(broker, _specs())
    task = broker.handle("claim", {"worker": "w0"})["task"]
    broker.clock.advance(8.0)
    assert broker.handle(
        "heartbeat", {"spec_hash": task["spec_hash"], "lease": task["lease"]}
    )["ok"]
    broker.clock.advance(8.0)  # 16s total, but the deadline moved
    assert broker.handle("claim", {"worker": "w1"})["task"] is None
    assert broker.counters["leases_expired"] == 0


def test_heartbeat_on_a_lost_lease_tells_the_worker_to_abandon():
    broker = _broker()
    _submit(broker, _specs())
    task = broker.handle("claim", {"worker": "w0"})["task"]
    broker.clock.advance(11.0)
    beat = broker.handle(
        "heartbeat", {"spec_hash": task["spec_hash"], "lease": task["lease"]}
    )
    assert beat == {"ok": False}


def test_duplicate_completion_is_a_counted_noop():
    broker = _broker()
    _submit(broker, _specs())
    task = broker.handle("claim", {"worker": "w0"})["task"]
    payload = _ok_payload(task["spec_hash"], task["lease"])
    assert broker.handle("complete", payload) == {"ok": True}
    again = broker.handle("complete", payload)
    assert again == {"ok": True, "duplicate": True}
    assert broker.counters["duplicate_results"] == 1
    assert broker.counters["completions"] == 1


def test_mangled_payload_is_rejected_and_the_task_requeued():
    broker = _broker()
    _submit(broker, _specs())
    task = broker.handle("claim", {"worker": "w0"})["task"]
    payload = _ok_payload(task["spec_hash"], task["lease"])
    payload["result"]["rows"] = [9]  # flips a bit after sealing
    rejected = broker.handle("complete", payload)
    assert rejected == {"ok": False, "rejected": True}
    assert broker.counters["rejected_results"] == 1
    # The work is recoverable: reclaim and complete verifiably.
    task = broker.handle("claim", {"worker": "w1"})["task"]
    assert broker.handle(
        "complete", _ok_payload(task["spec_hash"], task["lease"])
    ) == {"ok": True}


def test_result_for_the_wrong_spec_hash_is_rejected():
    broker = _broker()
    specs = _specs(2)
    _submit(broker, specs)
    task = broker.handle("claim", {"worker": "w0"})["task"]
    other = specs[1].content_hash
    payload = _ok_payload(other, task["lease"])
    payload["spec_hash"] = task["spec_hash"]  # addressed to the wrong task
    assert broker.handle("complete", payload)["rejected"]


def test_stale_but_verified_completion_is_accepted():
    broker = _broker()
    _submit(broker, _specs())
    task = broker.handle("claim", {"worker": "w0"})["task"]
    broker.clock.advance(11.0)  # the lease will expire on the next call
    done = broker.handle(
        "complete", _ok_payload(task["spec_hash"], task["lease"])
    )
    assert done == {"ok": True}
    assert broker.counters["stale_completions"] == 1
    assert broker.counters["completions"] == 1
    assert broker.handle("status", {})["queue_depth"] == 0


def test_error_completions_consume_the_retry_budget_then_fail():
    broker = _broker(
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
    )
    spec = _specs()[0]
    _submit(broker, [spec])
    task = broker.handle("claim", {"worker": "w0"})["task"]
    first = broker.handle(
        "complete",
        {"spec_hash": task["spec_hash"], "lease": task["lease"],
         "status": "error", "kind": "error", "detail": "boom"},
    )
    assert first == {"ok": True, "requeued": True}
    task = broker.handle("claim", {"worker": "w1"})["task"]
    assert task["attempt"] == 1
    second = broker.handle(
        "complete",
        {"spec_hash": task["spec_hash"], "lease": task["lease"],
         "status": "error", "kind": "error", "detail": "boom"},
    )
    assert second == {"ok": True, "failed": True}
    assert broker.counters["task_retries"] == 1
    assert broker.counters["failed_tasks"] == 1
    response = broker.handle("results", {"hashes": [spec.content_hash]})
    retried, failure = response["failures"]  # every attempt's record
    assert retried["attempt"] == 0 and retried["retried"]
    assert failure["kind"] == "error" and not failure["retried"]


def test_unknown_op_and_unknown_completion_raise_dispatch_error():
    broker = _broker()
    with pytest.raises(DispatchError):
        broker.handle("bogus", {})
    with pytest.raises(DispatchError):
        broker.handle("complete", {"spec_hash": "deadbeef"})
