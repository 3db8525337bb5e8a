"""Report card: row comparison, verdicts, baseline persistence, markdown."""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    StageSpec,
    compare_rows,
    load_baseline,
    run_campaign,
    update_baseline,
)
from repro.campaign.report import ClaimReport, ReportCard, StageReport
from repro.errors import CampaignError


def _rows():
    return [
        {"topology": "mecs", "latency": 10.0, "events": 4, "ok": True},
        {"topology": "dps", "latency": 20.0, "events": 8, "ok": False},
    ]


def test_compare_rows_exact_match_passes():
    verdict, mismatches = compare_rows(_rows(), _rows(), tolerance=0.0)
    assert verdict == "pass"
    assert mismatches == []


def test_compare_rows_within_tolerance_is_drift():
    current = _rows()
    current[0]["latency"] = 10.2  # 2% off
    verdict, mismatches = compare_rows(current, _rows(), tolerance=0.05)
    assert verdict == "drift"
    assert len(mismatches) == 1
    assert "within" in mismatches[0]


def test_compare_rows_beyond_tolerance_fails():
    current = _rows()
    current[1]["latency"] = 40.0
    verdict, mismatches = compare_rows(current, _rows(), tolerance=0.05)
    assert verdict == "fail"
    assert "beyond" in mismatches[0]


def test_compare_rows_integer_drift_is_numeric():
    current = _rows()
    current[0]["events"] = 5  # 20% off an int count
    verdict, _ = compare_rows(current, _rows(), tolerance=0.25)
    assert verdict == "drift"


def test_compare_rows_bool_change_is_structural():
    current = _rows()
    current[0]["ok"] = False
    verdict, mismatches = compare_rows(current, _rows(), tolerance=1.0)
    assert verdict == "fail"
    assert "True" in mismatches[0] or "False" in mismatches[0]


def test_compare_rows_string_change_fails():
    current = _rows()
    current[0]["topology"] = "mesh_x1"
    verdict, _ = compare_rows(current, _rows(), tolerance=1.0)
    assert verdict == "fail"


def test_compare_rows_row_count_mismatch_fails():
    verdict, mismatches = compare_rows(_rows()[:1], _rows(), tolerance=1.0)
    assert verdict == "fail"
    assert "row count" in mismatches[0]


def test_compare_rows_field_set_mismatch_fails():
    current = _rows()
    current[0] = {"different": 1}
    verdict, mismatches = compare_rows(current, _rows(), tolerance=1.0)
    assert verdict == "fail"
    assert "fields" in mismatches[0]


def test_report_card_overall_rollup():
    def stage(verdict):
        return StageReport(
            name="s",
            kind="fig3",
            verdict=verdict,
            detail="",
            rows=1,
            elapsed_seconds=0.0,
            artifact_sha256=None,
        )

    def card(*verdicts):
        return ReportCard(
            campaign="c",
            engine="1.5.0",
            seed=1,
            drift_tolerance=0.05,
            stages=tuple(stage(v) for v in verdicts),
        )

    assert card("pass", "pass").overall == "pass"
    assert card("pass", "drift").overall == "drift"
    assert card("pass", "fail").overall == "fail"
    assert card("pass", "no_baseline").overall == "fail"
    assert card("pass", "stale_baseline").overall == "fail"
    assert not card("pass", "drift").passed
    assert card("pass", "drift").counts() == {"pass": 1, "drift": 1}


def test_a_false_claim_fails_the_rollup_and_shows_in_markdown():
    stage = StageReport(
        name="area",
        kind="fig3",
        verdict="pass",
        detail="matches baseline exactly",
        rows=5,
        elapsed_seconds=0.0,
        artifact_sha256=None,
    )
    claim = ClaimReport(
        id="fig3.area_order",
        where="Fig. 3",
        stage="area",
        statement="mesh_x1 has the smallest router area.",
        holds=False,
    )
    card = ReportCard(
        campaign="c",
        engine="1.5.0",
        seed=1,
        drift_tolerance=0.05,
        stages=(stage,),
        claims=(claim,),
    )
    assert card.overall == "fail" and not card.passed
    assert card.counts() == {"pass": 1}  # the stage verdict keeps its meaning
    text = card.to_markdown()
    assert "Paper claims: 0 of 1 hold" in text
    assert "| `fig3.area_order` | Fig. 3 | `area` | ❌ false |" in text
    held = replace(card, claims=(replace(claim, holds=True),))
    assert held.overall == "pass"


def test_markdown_contains_verdict_table_and_mismatch_details():
    card = ReportCard(
        campaign="c",
        engine="1.5.0",
        seed=1,
        drift_tolerance=0.05,
        stages=(
            StageReport(
                name="bad",
                kind="fig4",
                verdict="fail",
                detail="2 mismatch(es) vs baseline",
                rows=3,
                elapsed_seconds=1.0,
                artifact_sha256="ab" * 32,
                mismatches=("row 0 latency: 1 vs 2 (rel 5.00e-01, beyond 0.05)",),
            ),
        ),
    )
    text = card.to_markdown()
    assert "Overall: FAIL" in text
    assert "| `bad` | fig4 |" in text
    assert "row 0 latency" in text


def _tiny():
    return CampaignSpec(
        name="tiny",
        description="t",
        stages=(StageSpec("area", "fig3"),),
    )


def test_stale_baseline_verdict(tmp_path):
    baseline = tmp_path / "b.json"
    campaign = _tiny()
    run_campaign(campaign, campaign_dir=tmp_path / "c", baseline_path=baseline)
    runner = CampaignRunner(
        campaign, campaign_dir=tmp_path / "c", baseline_path=baseline
    )
    entries = runner.baseline_entries()
    entries["area"]["stage_hash"] = "0" * 64
    update_baseline(baseline, "tiny", entries)
    report = runner.report()
    assert report.stages[0].verdict == "stale_baseline"
    assert report.overall == "fail"


def test_update_baseline_preserves_other_campaigns(tmp_path):
    baseline = tmp_path / "b.json"
    update_baseline(baseline, "one", {"s": {"stage_hash": "x", "rows": []}})
    update_baseline(baseline, "two", {"t": {"stage_hash": "y", "rows": []}})
    data = load_baseline(baseline)
    assert set(data["campaigns"]) == {"one", "two"}
    update_baseline(baseline, "one", {"s2": {"stage_hash": "z", "rows": []}})
    data = load_baseline(baseline)
    assert set(data["campaigns"]["one"]["stages"]) == {"s2"}
    assert set(data["campaigns"]["two"]["stages"]) == {"t"}


def test_load_baseline_missing_returns_none(tmp_path):
    assert load_baseline(tmp_path / "nope.json") is None


def test_load_baseline_bad_schema_raises(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": 99, "campaigns": {}}))
    with pytest.raises(CampaignError, match="schema"):
        load_baseline(path)


def test_corrupted_artifact_reports_fail_not_pending(tmp_path):
    campaign = _tiny()
    run_campaign(campaign, campaign_dir=tmp_path / "c")
    (tmp_path / "c" / "artifacts" / "area.json").write_text("garbage")
    runner = CampaignRunner(campaign, campaign_dir=tmp_path / "c")
    report = runner.report()
    assert report.stages[0].verdict == "fail"
    assert "digest" in report.stages[0].detail
    assert report.overall == "fail"


def test_committed_smoke_baseline_is_current(tmp_path):
    """The repo's CAMPAIGN_baseline.json must match the smoke campaign's
    current stage hashes — a budget or engine change without a baseline
    regeneration turns CI red via stale_baseline, not silently."""
    from pathlib import Path

    import repro
    from repro.campaign import get_campaign
    from repro.campaign.report import baseline_stage_entry
    from repro.campaign.spec import stage_hash
    from repro.campaign.stages import get_adapter

    baseline_path = Path(__file__).resolve().parents[1] / "CAMPAIGN_baseline.json"
    baseline = load_baseline(baseline_path)
    assert baseline is not None, "CAMPAIGN_baseline.json missing from the repo"
    for name in ("smoke", "paper"):
        campaign = get_campaign(name)
        for stage in campaign.stages:
            entry = baseline_stage_entry(baseline, name, stage.name)
            assert entry is not None, f"{name}/{stage.name} missing from baseline"
            expected = stage_hash(
                campaign,
                stage,
                adapter_version=get_adapter(stage.kind).version,
                engine_version=repro.__version__,
            )
            assert entry["stage_hash"] == expected, (
                f"{name}/{stage.name}: baseline is stale — regenerate with "
                "'repro campaign report {name} --update-baseline'"
            )
