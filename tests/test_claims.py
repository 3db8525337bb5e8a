"""The claim table: every paper claim holds at its campaigns' budgets.

``paper`` claims are checked on the committed ``paper`` rows without
simulating (CI's ``campaign-paper`` job checks them live); ``smoke``
claims are checked live on the session's smoke run.  A false claim
fails the report card even when every stage matches a baseline that was
re-recorded from the rows that break it.
"""

import dataclasses
import json
import os
import re

import pytest

import repro.campaign.builtin as builtin
from repro.campaign import get_campaign, load_baseline
from repro.campaign.claims import CLAIMS, check, claims_for
from repro.campaign.stages import STAGE_ADAPTERS
from repro.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
BASELINE = load_baseline(os.path.join(ROOT, "CAMPAIGN_baseline.json"))


def _committed_rows(campaign: str, kind: str) -> list[dict]:
    """The committed rows of ``campaign``'s one stage of ``kind``."""
    [stage] = [s for s in get_campaign(campaign).stages if s.kind == kind]
    return BASELINE["campaigns"][campaign]["stages"][stage.name]["rows"]


def _id(claim):
    return claim.id


@pytest.mark.parametrize("claim", claims_for("paper"), ids=_id)
def test_paper_claim_holds_on_committed_rows(claim):
    assert check(claim, _committed_rows("paper", claim.kind)) == (True, "")


@pytest.mark.parametrize("claim", claims_for("smoke"), ids=_id)
def test_smoke_claim_holds_on_a_live_run(claim, smoke_campaign):
    [report] = [c for c in smoke_campaign.report.claims if c.id == claim.id]
    assert report.holds, report


def test_the_smoke_card_evaluates_each_smoke_claim_once(smoke_campaign):
    evaluated = [claim.id for claim in smoke_campaign.report.claims]
    assert evaluated == [claim.id for claim in claims_for("smoke")]


def test_each_claim_reads_a_kind_its_campaigns_run():
    ids = [claim.id for claim in CLAIMS]
    assert len(set(ids)) == len(ids)
    for claim in CLAIMS:
        assert claim.kind in STAGE_ADAPTERS, claim.id
        assert claim.statement and claim.campaigns, claim.id
        for campaign in claim.campaigns:
            # Every topology, workload, pattern or policy the predicate
            # reads is in the campaign's rows: no lookup fails.
            _, detail = check(claim, _committed_rows(campaign, claim.kind))
            assert detail == "", (claim.id, campaign, detail)


def test_a_false_claim_fails_a_card_whose_stages_all_pass(tmp_path, monkeypatch):
    """A planted area-model change re-recorded into the baseline: every
    stage passes, yet the card fails and ``report --check`` exits 1."""
    import repro.analysis.experiments.fig3_area as fig3_area

    smoke = get_campaign("smoke")
    analytical = dataclasses.replace(
        smoke, stages=tuple(s for s in smoke.stages if s.kind in ("fig3", "fig7"))
    )
    monkeypatch.setitem(builtin.CAMPAIGNS, "smoke", analytical)
    model = fig3_area.stage_rows

    def shrunken_mesh_x4(*args, **kwargs):
        rows = model(*args, **kwargs)
        for row in rows:
            if row["topology"] == "mesh_x4":
                row["total_mm2"] /= 10
        return rows

    def recorded_and_checked(state):
        flags = ["--campaign-dir", str(state),
                 "--baseline", str(tmp_path / "baseline.json")]
        assert main(["campaign", "run", "smoke", "--no-cache", *flags]) == 0
        code = main(["campaign", "report", "smoke", "--update-baseline",
                     "--check", *flags])
        return code, json.loads((state / "report.json").read_text())

    code, card = recorded_and_checked(tmp_path / "honest")
    assert code == 0 and card["overall"] == "pass"
    monkeypatch.setattr(fig3_area, "stage_rows", shrunken_mesh_x4)
    code, card = recorded_and_checked(tmp_path / "planted")
    assert code == 1 and card["overall"] == "fail"
    assert card["counts"] == {"pass": 2}
    assert [c["id"] for c in card["claims"] if not c["holds"]] == [
        "fig3.area_order"
    ]


def test_the_claims_section_of_the_docs_lists_every_claim():
    with open(os.path.join(ROOT, "docs", "campaigns.md"), encoding="utf-8") as f:
        section = f.read().split("\n## Claims\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| `(\w+)` \| (.+?) \|$",
                      section, flags=re.M)
    assert rows == [
        (claim.id, claim.where, claim.kind, ", ".join(claim.campaigns))
        for claim in CLAIMS
    ]
