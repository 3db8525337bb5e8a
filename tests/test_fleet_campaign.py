"""Campaign-level fleet journaling: bit-neutrality and determinism.

The acceptance gate for the journaling seams: a journaled ``--dispatch
local`` smoke campaign must produce stage digests byte-identical to the
session's journaling-off smoke run (the ``smoke_campaign`` fixture), and
two journaled replays must produce journals identical after stripping
wall-clock fields.  The two journaled runs are shared across tests via
a module-scoped fixture — they dominate this file's wall time.
"""

import json

import pytest

from repro.campaign import get_campaign, run_campaign
from repro.dispatch import DispatchExecutor
from repro.obs.fleet import (
    JournalWriter,
    check_timeline,
    journal_digest,
    merge_journals,
)
from repro.obs.fleet.fleetcollect import journal_paths


def _digests(manifest: dict) -> dict:
    """Each stage's artifact sha256."""
    return {
        stage: entry["artifact_sha256"]
        for stage, entry in manifest["stages"].items()
    }


def _run_smoke(base, name):
    """One journaled smoke campaign through local dispatch; returns its
    digests and journal directory."""
    journal_dir = base / f"{name}-journal"
    executor = DispatchExecutor(jobs=2, journal_dir=str(journal_dir))
    writer = JournalWriter(journal_dir / "campaign.journal.jsonl", actor="campaign")
    try:
        result = run_campaign(
            get_campaign("smoke"),
            campaign_dir=base / name,
            executor=executor,
            journal=writer,
        )
    finally:
        executor.close()
        writer.close()
    assert result.complete
    manifest = json.loads((base / name / "manifest.json").read_text())
    return _digests(manifest), journal_dir


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fleet-smoke")
    first, first_dir = _run_smoke(base, "first")
    second, second_dir = _run_smoke(base, "second")
    return first, first_dir, second, second_dir


def test_journaling_is_bit_neutral_to_stage_digests(smoke_runs, smoke_campaign):
    first, _, second, _ = smoke_runs
    plain = _digests(smoke_campaign.manifest)
    assert plain == first == second
    assert len(plain) == len(get_campaign("smoke").stages)


def test_journal_replays_are_identical_after_wall_strip(smoke_runs):
    _, first_dir, _, second_dir = smoke_runs
    first_paths = journal_paths(first_dir)
    second_paths = journal_paths(second_dir)
    assert [p.name for p in first_paths] == [p.name for p in second_paths]
    assert {p.name for p in first_paths} >= {
        "broker.journal.jsonl", "campaign.journal.jsonl",
    }
    for path_a, path_b in zip(first_paths, second_paths):
        assert journal_digest(path_a) == journal_digest(path_b), path_a.name


def test_merged_campaign_timeline_is_causally_complete(smoke_runs):
    _, first_dir, _, _ = smoke_runs
    timeline = merge_journals(journal_paths(first_dir))
    assert check_timeline(timeline) == []
    # Every shard gets its own trace; each trace's records begin with
    # the campaign-side shard_start and end with shard_finish.
    shard_traces = [
        record["trace"] for record in timeline.records
        if record["event"] == "campaign.shard_start"
    ]
    assert len(shard_traces) == len(set(shard_traces))
    for trace in shard_traces:
        events = [r["event"] for r in timeline.for_trace(trace)]
        assert events[0] == "campaign.shard_start"
        assert events[-1] == "campaign.shard_finish"
        # Simulated shards route every spec through the broker.
        if "broker.submit" in events:
            assert events.count("broker.submit") == events.count(
                "broker.complete"
            )


def test_fleet_gauges_roll_up_into_campaign_manifest(smoke_runs, tmp_path):
    _, first_dir, _, _ = smoke_runs
    # Gauges ride the dispatch telemetry as a nested mapping (point-in-
    # time values, last-write-wins), next to the summed counters.
    base = first_dir.parent
    manifest = json.loads((base / "first" / "manifest.json").read_text())
    dispatch = manifest["telemetry"]["resilience"]["dispatch"]
    assert dispatch["completions"] > 0
    fleet = dispatch.get("fleet")
    assert isinstance(fleet, dict)
    assert fleet["inflight"] == 0
