"""repro.campaign — resumable full-paper reproduction campaigns.

A campaign is a declarative set of stages (experiments, figures,
ablations, scenario studies) with parameter grids, dependencies, and
shard decompositions.  Running one produces a sha256-addressed
artifact store plus a report card comparing every stage's summary
rows against the committed baseline::

    from repro.campaign import get_campaign, run_campaign
    from repro import ParallelExecutor, ResultCache

    result = run_campaign(
        get_campaign("smoke"),
        campaign_dir="campaigns/smoke",
        executor=ParallelExecutor(jobs=4),
        cache=ResultCache(),
        baseline_path="CAMPAIGN_baseline.json",
    )
    print(result.report.overall)          # "pass" | "drift" | "fail"

Interrupt it at any point; re-running (or ``repro campaign resume``)
continues from the manifest checkpoint and produces byte-identical
artifacts.  CLI: ``repro campaign list|run|status|resume|report|diff``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".builtin": ("CAMPAIGNS", "get_campaign"),
        ".doctor": ("CampaignFsckReport", "fsck_campaign"),
        ".report": (
            "BASELINE_FILENAME",
            "ReportCard",
            "StageReport",
            "compare_rows",
            "load_baseline",
            "update_baseline",
        ),
        ".runner": (
            "CampaignResult",
            "CampaignRunner",
            "run_campaign",
            "stage_digests",
        ),
        ".spec": ("CampaignSpec", "StageSpec", "stage_hash"),
        ".stages": ("STAGE_ADAPTERS", "STAGE_KINDS", "get_adapter"),
    },
)
