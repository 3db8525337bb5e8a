"""Runtime telemetry: executor recorders, heartbeats, campaign rollups."""

import json

import pytest

from repro.campaign import CampaignSpec, StageSpec, run_campaign
from repro.errors import ExecutionFailed
from repro.network.config import SimulationConfig
from repro.obs import (
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    TelemetryRecorder,
    heartbeat_printer,
    write_runtime_telemetry,
)
from repro.resilience import Fault, FaultInjector, FaultPlan, RetryPolicy
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.runner import run_batch
from repro.runtime.spec import RunSpec


def tiny_specs(n=3):
    return [
        RunSpec(topology="mesh_x1", workload="uniform", rate=0.02 + 0.01 * i,
                config=SimulationConfig(frame_cycles=500, seed=2), cycles=400)
        for i in range(n)
    ]


def attached(executor, **options):
    recorder = TelemetryRecorder(executor, **options)
    executor.attach(recorder)
    return recorder


def test_a_recorded_executor_is_pass_through():
    specs = tiny_specs()
    bare = run_batch(specs, executor=SerialExecutor(), cache=None)
    executor = SerialExecutor()
    recorder = attached(executor)
    recorded = run_batch(specs, executor=executor, cache=None)
    assert recorded.results == bare.results
    # Nothing wraps the executor: it describes itself, recorder or not.
    assert recorded.manifest.executor == "serial"
    snapshot = recorder.snapshot()
    assert (snapshot["executor"], snapshot["jobs"]) == ("serial", 1)
    assert snapshot["totals"]["specs"] == len(specs)
    executor.detach(recorder)
    run_batch(specs, executor=executor, cache=None)
    assert recorder.snapshot()["totals"]["batches"] == 1


def test_snapshot_totals_and_completion_log():
    executor = SerialExecutor()
    recorder = attached(executor)
    run_batch(tiny_specs(2), executor=executor, cache=None)
    run_batch(tiny_specs(3), executor=executor, cache=None)
    snapshot = recorder.snapshot()
    assert snapshot["totals"]["batches"] == 2
    assert snapshot["totals"]["specs"] == 5
    assert snapshot["totals"]["simulated"] == 5
    assert snapshot["totals"]["cache_hits"] == 0
    assert [c["batch"] for c in snapshot["completions"]] == [0, 0, 1, 1, 1]
    assert all(c["at_seconds"] >= 0 for c in snapshot["completions"])
    labels = {c["label"] for c in snapshot["completions"]}
    assert len(labels) == 3  # batch 2 repeats batch 1's two specs


def test_telemetry_progress_still_forwarded():
    seen = []
    beats = []
    executor = SerialExecutor()
    attached(executor, stage="sat",
             heartbeat=lambda stage, done, total, label, cached:
                 beats.append((stage, done, total)))
    run_batch(
        tiny_specs(2), executor=executor, cache=None,
        progress=lambda done, total, spec, cached:
            seen.append((done, total, cached)),
    )
    assert seen == [(1, 2, False), (2, 2, False)]
    assert beats == [("sat", 1, 2), ("sat", 2, 2)]


def test_a_batch_that_raises_is_still_recorded():
    # The failing batch's partial outcome is logged before the error
    # propagates, so --obs totals agree with the campaign manifest.
    plan = FaultPlan(
        name="err", faults=(Fault(kind="spec_error", at=0, attempts=5),)
    )
    with ParallelExecutor(
        jobs=2, retry=RetryPolicy(max_attempts=2), faults=FaultInjector(plan)
    ) as executor:
        recorder = attached(executor)
        with pytest.raises(ExecutionFailed):
            executor.run(tiny_specs(3))
    snapshot = recorder.snapshot()
    assert snapshot["totals"]["batches"] == 1
    assert snapshot["totals"]["simulated"] == 2
    assert snapshot["totals"]["retries"] == 1
    assert snapshot["totals"]["failures"] == 2  # both attempts, in order
    assert len(snapshot["completions"]) == 2
    shard = recorder.shard_record()
    assert shard["spec_failures"] == 1
    assert shard["simulated"] == 2 and shard["spec_hashes"] == []


def test_write_runtime_telemetry_document(tmp_path):
    executor = SerialExecutor()
    recorder = attached(executor)
    run_batch(tiny_specs(1), executor=executor, cache=None)
    path = tmp_path / "nested" / "telemetry.json"
    write_runtime_telemetry(path, recorder.snapshot(), meta={"target": "t"})
    document = json.loads(path.read_text())
    assert document["format"] == TELEMETRY_FORMAT
    assert document["version"] == TELEMETRY_VERSION
    assert document["meta"] == {"target": "t"}
    assert document["totals"]["specs"] == 1


def test_heartbeat_prints_every_spec_by_default():
    lines = []
    heartbeat = heartbeat_printer(emit=lines.append)
    heartbeat("sat", 1, 3, "a", False)
    heartbeat("sat", 2, 3, "b", True)
    heartbeat("sat", 3, 3, "c", False)
    assert lines[:3] == [
        "      [sat] 1/3   sim  a",
        "      [sat] 2/3 cache  b",
        "      [sat] 3/3   sim  c",
    ]
    # The terminal heartbeat additionally flushes the stage summary.
    assert len(lines) == 4
    assert lines[3].startswith("      [sat] done: 2 sim + 1 cache in ")


def test_heartbeat_rate_cap_always_prints_final():
    lines = []
    heartbeat = heartbeat_printer(emit=lines.append,
                                  min_interval_seconds=3600.0)
    heartbeat("sat", 1, 3, "a", False)  # first: interval satisfied at t=0
    heartbeat("sat", 2, 3, "b", False)  # capped
    heartbeat("sat", 3, 3, "c", False)  # final always prints
    assert [line.split("]")[1].strip() for line in lines[:2]] == [
        "1/3   sim  a", "3/3   sim  c",
    ]
    # The summary counts every spec, including the rate-capped one.
    assert lines[2].startswith("      [sat] done: 3 sim + 0 cache in ")


def test_heartbeat_summary_tracks_stages_independently():
    lines = []
    heartbeat = heartbeat_printer(emit=lines.append)
    heartbeat("alpha", 1, 2, "a", False)
    heartbeat("beta", 1, 1, "b", True)   # beta finishes mid-alpha
    heartbeat("alpha", 2, 2, "c", True)
    summaries = [line for line in lines if "done:" in line]
    assert summaries[0].startswith("      [beta] done: 0 sim + 1 cache")
    assert summaries[1].startswith("      [alpha] done: 1 sim + 1 cache")


def test_campaign_heartbeat_and_manifest_telemetry(tmp_path):
    campaign = CampaignSpec(
        name="tiny",
        description="test campaign",
        stages=(
            StageSpec("area", "fig3"),
            StageSpec(
                "sat", "saturation",
                params={"cycles": 300, "topology_names": ["mesh_x1"]},
                depends_on=("area",),
            ),
        ),
    )
    beats = []
    result = run_campaign(
        campaign, campaign_dir=tmp_path / "c",
        heartbeat=lambda stage, done, total, label, cached:
            beats.append((stage, done, total, cached)),
    )
    assert result.complete
    # The analytical stage runs no specs; the simulated stage beats once
    # per spec and ends on total/total.
    stages = {stage for stage, *_ in beats}
    assert stages == {"sat"}
    done, total = beats[-1][1], beats[-1][2]
    assert done == total == len(beats)
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    telemetry = manifest["telemetry"]
    assert telemetry["executor"] == "serial"
    assert telemetry["specs"] == len(beats)
    assert telemetry["simulated"] + telemetry["cache_hits"] == len(beats)
    assert telemetry["wall_seconds"] > 0
    assert set(telemetry["stages"]) == {"area", "sat"}
    assert telemetry["stages"]["sat"]["specs"] == len(beats)
    assert telemetry["stages"]["area"]["status"] == "complete"
