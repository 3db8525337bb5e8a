"""Chaos runs: every fault kind fires, and no fault perturbs the bytes."""

import json

import pytest

import repro.campaign.builtin as builtin
from repro.campaign import CampaignRunner, CampaignSpec, StageSpec
from repro.campaign.runner import stage_digests
from repro.cli import main
from repro.dispatch import DispatchExecutor
from repro.resilience import Fault, FaultInjector, FaultPlan, RetryPolicy, run_chaos
from repro.resilience.faults import FAULT_KINDS, LEASE_KINDS


def tiny_campaign():
    """Eight specs (two shards of four) after an analytical stage."""
    return CampaignSpec(
        name="tinychaos",
        description="chaos test campaign",
        stages=(
            StageSpec("area", "fig3"),
            StageSpec(
                "lat",
                "fig4",
                params={
                    "rates": [0.02, 0.08],
                    "cycles": 300,
                    "warmup": 50,
                    "topology_names": ["mesh_x1", "mecs"],
                },
                shards=(
                    {"topology_names": ["mesh_x1"]},
                    {"topology_names": ["mecs"]},
                ),
                depends_on=("area",),
            ),
            StageSpec(
                "sat",
                "saturation",
                params={"cycles": 300, "topology_names": ["mesh_x1"]},
                depends_on=("area",),
            ),
        ),
    )


def every_lease_fault():
    """One lease fault per serial, on the eight specs of ``lat``."""
    seconds = {"worker_hang": 30.0, "delay_response": 0.01}
    return tuple(
        Fault(kind=kind, at=serial, seconds=seconds.get(kind, 30.0))
        for serial, kind in enumerate(LEASE_KINDS)
    )


def test_the_parallel_legs_fire_every_fault_kind(tmp_path):
    plan = FaultPlan(
        name="every-kind",
        seed=5,
        faults=(
            *every_lease_fault(),
            Fault(kind="adapter_error", at=1),
            Fault(kind="corrupt_cache", at=2),
            Fault(kind="torn_manifest", at=2),
        ),
        interrupt_after_shards=3,  # area, then both shards of lat
    )
    report = run_chaos(
        tiny_campaign(),
        chaos_dir=tmp_path / "chaos",
        plan=plan,
        jobs=2,
        retries=2,
        timeout=1.0,
    )
    assert report.converged, report.summary()
    assert report.interrupted
    assert set(report.fired) == {*FAULT_KINDS, "interrupt"}
    # The agent deaths and charged retries come from the executor.
    assert report.resilience["worker_deaths"] >= 4  # kill, hang, partition, vanish
    assert report.resilience["timeouts"] >= 1
    on_disk = json.loads((tmp_path / "chaos" / "chaos_report.json").read_text())
    assert on_disk["converged"] is True
    assert "dispatch" not in on_disk


def test_in_process_agents_converge_under_every_lease_fault(tmp_path):
    campaign = tiny_campaign()
    reference = CampaignRunner(campaign, campaign_dir=tmp_path / "reference").run()
    injector = FaultInjector(FaultPlan(name="lease", faults=every_lease_fault()))
    with DispatchExecutor(
        jobs=2, retry=RetryPolicy(max_attempts=3), faults=injector
    ) as executor:
        result = CampaignRunner(
            campaign, campaign_dir=tmp_path / "dispatch", executor=executor
        ).run()
        counters = dict(executor.broker.counters)
    assert result.complete
    assert stage_digests(result.manifest) == stage_digests(reference.manifest)
    assert injector.summary() == {kind: 1 for kind in LEASE_KINDS}
    # Kill, hang, vanish and partition cost the lease, not an attempt.
    assert counters["leases_expired"] == 4
    assert counters["task_retries"] == 1  # the spec error
    assert counters["duplicate_results"] == 1


@pytest.fixture
def small_registered(monkeypatch):
    campaign = CampaignSpec(
        name="tinyunreached",
        description="chaos gate test campaign",
        stages=(
            StageSpec("area", "fig3"),
            StageSpec(
                "sat",
                "saturation",
                params={"cycles": 300, "topology_names": ["mesh_x1"]},
                depends_on=("area",),
            ),
        ),
    )
    monkeypatch.setitem(builtin.CAMPAIGNS, campaign.name, campaign)
    return campaign


def test_a_fault_that_never_fires_fails_the_chaos_gate(
    small_registered, tmp_path, capsys
):
    # Digests that converge prove nothing about a fault that never
    # fired: the plan tested less than it claims.
    plan = FaultPlan(name="unreached", faults=(Fault(kind="spec_error", at=999),))
    path = tmp_path / "plan.json"
    path.write_text(plan.dumps(), encoding="utf-8")
    assert main(["chaos", "run", small_registered.name, "--chaos", str(path),
                 "--out", str(tmp_path / "chaos"), "--jobs", "2"]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out and "NEVER FIRED: spec_error" in out
    assert "stages identical: 2/2" in out


def test_a_rerun_in_the_same_directory_disturbs_the_campaign_again(
    small_registered, tmp_path
):
    # A second run must not serve every stage from the first run's
    # manifest, or no fault would fire and nothing would be tested.
    plan = FaultPlan(
        name="again",
        faults=(
            Fault(kind="adapter_error", at=0),
            Fault(kind="corrupt_cache", at=0),
        ),
        interrupt_after_shards=1,
    )
    reports = [
        run_chaos(small_registered, chaos_dir=tmp_path / "chaos", plan=plan,
                  jobs=2, timeout=30.0)
        for _ in range(2)
    ]
    assert [report.converged for report in reports] == [True, True]
    assert reports[1].fired == reports[0].fired
    assert reports[1].interrupted
