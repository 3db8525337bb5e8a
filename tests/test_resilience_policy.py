"""RetryPolicy, FailureRecord, FaultPlan and FaultInjector units."""

import json

import pytest

from repro.errors import ReproError
from repro.resilience import (
    Fault,
    FaultInjector,
    FaultPlan,
    FailureRecord,
    RetryPolicy,
    load_plan,
)
from repro.resilience.faults import (
    BUILTIN_PLANS,
    FAULT_KINDS,
    LEASE_KINDS,
    InjectedFault,
)

_HASH = "ab" * 32


# -- RetryPolicy -------------------------------------------------------


def test_delay_is_a_pure_function_of_seed_hash_and_attempt():
    a = RetryPolicy(seed=3)
    b = RetryPolicy(seed=3)
    assert a.delay(_HASH, 0) == b.delay(_HASH, 0)
    assert a.delay(_HASH, 2) == b.delay(_HASH, 2)
    assert RetryPolicy(seed=4).delay(_HASH, 0) != a.delay(_HASH, 0)
    assert a.delay("cd" * 32, 0) != a.delay(_HASH, 0)


def test_delay_respects_backoff_bounds():
    policy = RetryPolicy(
        backoff_base=0.05, backoff_factor=2.0, backoff_max=2.0, jitter=0.25
    )
    for attempt in range(9):
        capped = min(2.0, 0.05 * 2.0**attempt)
        delay = policy.delay(_HASH, attempt)
        assert capped <= delay <= capped * 1.25


def test_zero_jitter_gives_exact_exponential_backoff():
    policy = RetryPolicy(jitter=0.0)
    assert policy.delay(_HASH, 3) == pytest.approx(0.4)  # 0.05 * 2**3
    assert policy.delay(_HASH, 10) == pytest.approx(2.0)  # capped


def test_should_retry_counts_total_attempts():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(0) and policy.should_retry(1)
    assert not policy.should_retry(2)
    assert not RetryPolicy(max_attempts=1).should_retry(0)


def test_policy_validation_and_round_trip():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)
    policy = RetryPolicy(max_attempts=5, seed=9, backoff_max=1.5)
    assert RetryPolicy.from_json(policy.to_json()) == policy


# -- FailureRecord -----------------------------------------------------


def test_failure_record_round_trip_and_describe():
    record = FailureRecord(
        spec_hash=_HASH, label="mesh_x1/uniform", kind="timeout",
        attempt=1, detail="over budget", retried=True,
    )
    assert FailureRecord.from_json(record.to_json()) == record
    assert "timeout" in record.describe() and "retried" in record.describe()
    permanent = FailureRecord(
        spec_hash=_HASH, label="x", kind="crash", attempt=2,
        detail="died", retried=False,
    )
    assert "permanent" in permanent.describe()
    with pytest.raises(ValueError):
        FailureRecord(spec_hash=_HASH, label="x", kind="flood",
                      attempt=0, detail="", retried=False)


# -- Fault / FaultPlan -------------------------------------------------


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault(kind="meteor_strike", at=0)
    with pytest.raises(ValueError):
        Fault(kind="worker_kill", at=-1)
    with pytest.raises(ValueError):
        Fault(kind="spec_error", at=0, attempts=0)


def test_plan_round_trips_through_json():
    plan = FaultPlan(
        name="t", seed=5,
        faults=(Fault(kind="worker_hang", at=2, seconds=1.5),
                Fault(kind="corrupt_cache", at=0)),
        interrupt_after_shards=3,
    )
    assert FaultPlan.from_json(json.loads(plan.dumps())) == plan
    assert plan.without_interrupt().interrupt_after_shards is None
    assert plan.without_interrupt().faults == plan.faults


def test_builtin_smoke_plan_covers_every_fault_kind():
    plan = BUILTIN_PLANS["smoke"]
    assert {fault.kind for fault in plan.faults} == set(FAULT_KINDS)
    assert plan.interrupt_after_shards is not None
    # One lease fault per serial, on the eight specs the smoke campaign
    # submits before its interrupt (fig4's two shards of four).
    serials = [fault.at for fault in plan.faults if fault.kind in LEASE_KINDS]
    assert sorted(serials) == list(range(8))
    assert BUILTIN_PLANS["none"].faults == ()


def test_load_plan_by_name_file_and_failure(tmp_path):
    assert load_plan("smoke") is BUILTIN_PLANS["smoke"]
    custom = FaultPlan(name="mine", faults=(Fault(kind="spec_error", at=1),))
    path = tmp_path / "plan.json"
    path.write_text(custom.dumps(), encoding="utf-8")
    assert load_plan(str(path)) == custom
    with pytest.raises(ReproError):
        load_plan("no-such-plan")


# -- FaultInjector -----------------------------------------------------


def test_spec_error_fires_in_parent_and_respects_attempt_budget():
    plan = FaultPlan(faults=(Fault(kind="spec_error", at=0, attempts=2),))
    injector = FaultInjector(plan)
    stamp = [{"kind": "spec_error", "seconds": 30.0}]
    assert injector.lease_faults(0, 0) == stamp
    assert injector.lease_faults(0, 1) == stamp  # attempts=2: hit again
    assert injector.lease_faults(0, 2) == []  # then the retry goes clean
    assert injector.lease_faults(1, 0) == []  # other tasks untouched
    assert injector.summary() == {"spec_error": 2}


def test_a_lease_is_stamped_once_per_serial_and_attempt():
    # A vanish or partition costs the lease without charging an
    # attempt: the regranted lease of the same attempt must run clean.
    plan = FaultPlan(faults=(
        Fault(kind="worker_vanish", at=0),
        Fault(kind="partition_worker", at=0),
        Fault(kind="worker_hang", at=1, seconds=2.5),
        Fault(kind="adapter_error", at=0),
    ))
    injector = FaultInjector(plan)
    assert [f["kind"] for f in injector.lease_faults(0, 0)] == [
        "worker_vanish", "partition_worker",
    ]
    assert injector.lease_faults(0, 0) == []
    assert injector.lease_faults(1, 0) == [{"kind": "worker_hang", "seconds": 2.5}]
    assert [event["where"] for event in injector.fired] == ["task#0"] * 2 + [
        "task#1"
    ]


def test_adapter_error_keys_on_the_execution_counter():
    plan = FaultPlan(faults=(Fault(kind="adapter_error", at=1),))
    injector = FaultInjector(plan)
    injector.fire_adapter_error("a", 0, 0)  # execution 0: clean
    with pytest.raises(InjectedFault):
        injector.fire_adapter_error("b", 0, 0)  # execution 1: fires
    injector.fire_adapter_error("b", 0, 1)  # retry survives (attempts=1)
    injector.fire_adapter_error("c", 0, 0)  # execution 2: clean
    assert injector.summary() == {"adapter_error": 1}


def test_cache_put_fault_corrupts_only_the_matching_blob(tmp_path):
    plan = FaultPlan(faults=(Fault(kind="corrupt_cache", at=1),))
    injector = FaultInjector(plan)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        path.write_text('{"ok": true}', encoding="utf-8")
        injector.on_cache_put(path)
    assert json.loads(first.read_text()) == {"ok": True}
    assert second.read_bytes().startswith(b"\x00CORRUPT\x00")


def test_manifest_fault_tears_the_matching_save(tmp_path):
    plan = FaultPlan(faults=(Fault(kind="torn_manifest", at=0),))
    injector = FaultInjector(plan)
    manifest = tmp_path / "manifest.json"
    data = json.dumps({"stages": {"a": {"status": "complete"}}})
    manifest.write_text(data, encoding="utf-8")
    injector.on_manifest_save(manifest)
    torn = manifest.read_bytes()
    assert 0 < len(torn) < len(data)
    with pytest.raises(ValueError):
        json.loads(torn)


def test_stop_hook_fires_after_the_configured_checkpoint():
    assert FaultInjector(FaultPlan()).stop_hook() is None
    injector = FaultInjector(FaultPlan(interrupt_after_shards=2))
    hook = injector.stop_hook()
    assert hook("s", 0) is False
    assert hook("s", 1) is True
    assert injector.summary() == {"interrupt": 1}
