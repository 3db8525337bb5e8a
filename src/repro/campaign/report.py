"""Report card: campaign outputs versus the committed baseline.

The baseline file (``CAMPAIGN_baseline.json`` at the repository root)
records, per campaign and stage, the stage hash it was captured
against and the expected summary rows.  Comparing a finished campaign
against it yields a per-stage verdict:

``pass``
    rows are exactly equal (determinism makes bit-equality the norm);
``drift``
    same shape, every numeric deviation within the campaign's
    ``drift_tolerance`` — worth a look, not necessarily a regression;
``fail``
    structural mismatch or a numeric deviation beyond tolerance;
``stale_baseline``
    the baseline was recorded against a different stage hash (budgets,
    adapter version, or engine changed) — regenerate it;
``no_baseline``
    the stage has no baseline entry yet;
``failed`` / ``blocked`` / ``pending``
    the stage did not produce rows this campaign.

Every stage with rows also has the paper claims of its kind that the
campaign supports (:mod:`repro.campaign.claims`) evaluated on them.
The overall verdict is ``pass`` only when every stage passes and every
claim holds, which is exactly the condition CI gates on: a false claim
fails the card even when the baseline was re-recorded from its rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError

#: Default baseline location (relative to the working directory).
BASELINE_FILENAME = "CAMPAIGN_baseline.json"

#: Schema marker for the baseline file.
BASELINE_SCHEMA_VERSION = 1

#: Cap on recorded per-stage mismatch descriptions.
MAX_MISMATCHES = 50


# -- baseline persistence ---------------------------------------------


def load_baseline(path: str | os.PathLike) -> dict | None:
    """Parsed baseline file, or ``None`` when it does not exist."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as error:
        raise CampaignError(f"unreadable baseline {path}: {error}") from error
    if data.get("schema") != BASELINE_SCHEMA_VERSION:
        raise CampaignError(
            f"baseline {path} has schema {data.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA_VERSION}"
        )
    return data


def baseline_stage_entry(
    baseline: dict | None, campaign_name: str, stage_name: str
) -> dict | None:
    if not baseline:
        return None
    return (
        baseline.get("campaigns", {})
        .get(campaign_name, {})
        .get("stages", {})
        .get(stage_name)
    )


def update_baseline(
    path: str | os.PathLike,
    campaign_name: str,
    stage_entries: dict[str, dict],
) -> None:
    """Rewrite ``campaign_name``'s baseline entries, keeping the others.

    ``stage_entries`` maps stage name to ``{"stage_hash": ..., "rows":
    [...]}`` — exactly what the comparison consumes.
    """
    baseline = load_baseline(path) or {
        "schema": BASELINE_SCHEMA_VERSION,
        "campaigns": {},
    }
    baseline["campaigns"][campaign_name] = {"stages": stage_entries}
    data = json.dumps(baseline, sort_keys=True, indent=2) + "\n"
    target = Path(path)
    tmp = target.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, target)


# -- row comparison ---------------------------------------------------


def _relative_delta(current: float, expected: float) -> float:
    scale = max(abs(current), abs(expected))
    if scale == 0.0:
        return 0.0
    return abs(current - expected) / scale


def compare_rows(
    rows: list[dict],
    expected: list[dict],
    *,
    tolerance: float,
) -> tuple[str, list[str]]:
    """(verdict, mismatch descriptions) for one stage's rows.

    Exact equality is a ``pass``; numeric-only deviations within
    ``tolerance`` are ``drift``; anything else is ``fail``.
    """
    if len(rows) != len(expected):
        return "fail", [f"row count {len(rows)} != baseline {len(expected)}"]
    mismatches: list[str] = []
    verdict = "pass"
    for index, (row, want) in enumerate(zip(rows, expected)):
        if row == want:
            continue
        if sorted(row) != sorted(want):
            return "fail", [
                f"row {index}: fields {sorted(row)} != baseline {sorted(want)}"
            ]
        for key in sorted(want):
            current, reference = row[key], want[key]
            if current == reference:
                continue
            numeric = (
                isinstance(current, (int, float))
                and isinstance(reference, (int, float))
                and not isinstance(current, bool)
                and not isinstance(reference, bool)
            )
            if not numeric:
                verdict = "fail"
                detail = f"row {index} {key}: {current!r} != {reference!r}"
            else:
                delta = _relative_delta(float(current), float(reference))
                if delta <= tolerance:
                    if verdict == "pass":
                        verdict = "drift"
                    detail = (
                        f"row {index} {key}: {current!r} vs {reference!r} "
                        f"(rel {delta:.2e}, within {tolerance:g})"
                    )
                else:
                    verdict = "fail"
                    detail = (
                        f"row {index} {key}: {current!r} vs {reference!r} "
                        f"(rel {delta:.2e}, beyond {tolerance:g})"
                    )
            if len(mismatches) < MAX_MISMATCHES:
                mismatches.append(detail)
    return verdict, mismatches


# -- the report card --------------------------------------------------


@dataclass(frozen=True)
class StageReport:
    """One stage's verdict."""

    name: str
    kind: str
    verdict: str
    detail: str
    rows: int
    elapsed_seconds: float
    artifact_sha256: str | None
    mismatches: tuple[str, ...] = ()
    retries: int = 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "detail": self.detail,
            "rows": self.rows,
            "elapsed_seconds": self.elapsed_seconds,
            "artifact_sha256": self.artifact_sha256,
            "mismatches": list(self.mismatches),
            "retries": self.retries,
        }


@dataclass(frozen=True)
class ClaimReport:
    """One paper claim evaluated on one stage's rows."""

    id: str
    where: str
    stage: str
    statement: str
    holds: bool
    #: Why the rows could not decide the claim, if they could not.
    detail: str = ""


@dataclass(frozen=True)
class ReportCard:
    """Per-stage verdicts and paper claims plus the campaign-level roll-up."""

    campaign: str
    engine: str
    seed: int
    drift_tolerance: float
    stages: tuple[StageReport, ...]
    claims: tuple[ClaimReport, ...] = ()

    @property
    def overall(self) -> str:
        if not all(claim.holds for claim in self.claims):
            return "fail"
        verdicts = {stage.verdict for stage in self.stages}
        if verdicts <= {"pass"}:
            return "pass"
        if verdicts <= {"pass", "drift"}:
            return "drift"
        return "fail"

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for stage in self.stages:
            counts[stage.verdict] = counts.get(stage.verdict, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "campaign": self.campaign,
            "engine": self.engine,
            "seed": self.seed,
            "drift_tolerance": self.drift_tolerance,
            "overall": self.overall,
            "counts": self.counts(),
            "stages": [stage.to_json() for stage in self.stages],
            "claims": [asdict(claim) for claim in self.claims],
        }

    def to_markdown(self) -> str:
        """GitHub-flavoured summary (CI appends this to the job summary)."""
        icon = {"pass": "✅", "drift": "🟡"}.get(self.overall, "❌")
        lines = [
            f"# Campaign report card — `{self.campaign}`",
            "",
            f"{icon} **Overall: {self.overall.upper()}** "
            f"(engine {self.engine}, seed {self.seed}, "
            f"drift tolerance {self.drift_tolerance:g})",
            "",
            "| stage | kind | verdict | rows | time (s) | detail |",
            "|---|---|---|---:|---:|---|",
        ]
        for stage in self.stages:
            mark = {"pass": "✅"}.get(
                stage.verdict, "🟡" if stage.verdict == "drift" else "❌"
            )
            detail = stage.detail
            if stage.retries:
                detail = f"{detail} · {stage.retries} retr" + (
                    "y" if stage.retries == 1 else "ies"
                )
            lines.append(
                f"| `{stage.name}` | {stage.kind} | {mark} {stage.verdict} "
                f"| {stage.rows} | {stage.elapsed_seconds:.1f} "
                f"| {detail} |"
            )
        problem_stages = [
            stage for stage in self.stages if stage.verdict not in ("pass",)
        ]
        for stage in problem_stages:
            if not stage.mismatches:
                continue
            lines.append("")
            lines.append(
                f"<details><summary>{stage.name}: "
                f"{len(stage.mismatches)} mismatch(es)</summary>"
            )
            lines.append("")
            for mismatch in stage.mismatches[:10]:
                lines.append(f"- {mismatch}")
            lines.append("")
            lines.append("</details>")
        if self.claims:
            held = sum(claim.holds for claim in self.claims)
            lines += [
                "",
                f"## Paper claims: {held} of {len(self.claims)} hold",
                "",
                "| claim | where | stage | verdict | statement |",
                "|---|---|---|---|---|",
            ]
            for claim in self.claims:
                verdict = "✅ holds" if claim.holds else "❌ false"
                statement = claim.statement
                if claim.detail:
                    statement = f"{statement} — {claim.detail}"
                lines.append(
                    f"| `{claim.id}` | {claim.where} | `{claim.stage}` "
                    f"| {verdict} | {statement} |"
                )
        return "\n".join(lines)


def build_report_card(
    campaign: CampaignSpec,
    manifest: dict,
    stage_rows: dict[str, list[dict] | None],
    stage_hashes: dict[str, str],
    *,
    baseline: dict | None,
    engine: str,
) -> ReportCard:
    """Assemble the report card for a campaign's current on-disk state."""
    # Imported here, not at the top: building a campaign runner (a
    # benchmark's set-up) then never loads the claim table.
    from repro.campaign.claims import check, claims_for

    reports = []
    claims = []
    for stage in campaign.stages:
        entry = manifest["stages"].get(stage.name, {})
        status = entry.get("status", "pending")
        rows = stage_rows.get(stage.name)
        elapsed = float(entry.get("elapsed_seconds") or 0.0)
        digest = entry.get("artifact_sha256")
        retries = entry.get("retries", 0) + sum(
            shard.get("retries", 0) for shard in entry.get("shards") or [] if shard
        )
        if status != "complete" or rows is None:
            if status in ("failed", "blocked"):
                verdict = status
                detail = entry.get("error", f"stage is {status}")
            elif status == "complete":
                # The manifest says complete but the artifact is gone or
                # fails digest verification — surface the corruption as
                # a failure, never as a pending stage.
                verdict = "fail"
                detail = "artifact missing or failed digest verification"
            else:
                verdict = "pending"
                detail = f"stage is {status}"
            reports.append(
                StageReport(
                    name=stage.name,
                    kind=stage.kind,
                    verdict=verdict,
                    detail=detail,
                    rows=0,
                    elapsed_seconds=elapsed,
                    artifact_sha256=digest,
                    retries=retries,
                )
            )
            continue
        reference = baseline_stage_entry(baseline, campaign.name, stage.name)
        if reference is None:
            verdict, detail, mismatches = (
                "no_baseline",
                "no baseline entry for this stage",
                (),
            )
        elif reference.get("stage_hash") != stage_hashes[stage.name]:
            verdict, detail, mismatches = (
                "stale_baseline",
                "baseline was recorded against a different stage hash",
                (),
            )
        else:
            verdict, found = compare_rows(
                rows,
                reference.get("rows", []),
                tolerance=campaign.drift_tolerance,
            )
            mismatches = tuple(found)
            detail = (
                "matches baseline exactly"
                if verdict == "pass"
                else f"{len(found)} mismatch(es) vs baseline"
            )
        reports.append(
            StageReport(
                name=stage.name,
                kind=stage.kind,
                verdict=verdict,
                detail=detail,
                rows=len(rows),
                elapsed_seconds=elapsed,
                artifact_sha256=digest,
                mismatches=mismatches,
                retries=retries,
            )
        )
        for claim in claims_for(campaign.name, stage.kind):
            holds, why = check(claim, rows)
            claims.append(
                ClaimReport(
                    claim.id, claim.where, stage.name, claim.statement, holds, why
                )
            )
    return ReportCard(
        campaign=campaign.name,
        engine=engine,
        seed=campaign.seed,
        drift_tolerance=campaign.drift_tolerance,
        stages=tuple(reports),
        claims=tuple(claims),
    )
