"""Analysis utilities and the per-result experiment modules.

``repro.analysis.experiments`` holds one module per paper result
(Figures 3–7, Table 2, the Section 5.2 saturation study) and the
extensions, ``repro.analysis.ablations`` one per design-choice ablation,
and ``chip_study`` the shared-column placement study.  Each module's
``run_*`` returns typed results; its ``stage_rows`` projects them onto
the plain summary rows a campaign stage records, and its ``format_rows``
renders those rows as the paper's table.  The experiment table in
:mod:`repro.campaign.stages` names every such module once.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".chip_study": ("run_chip_study",),
        ".fairness": ("FairnessReport", "fairness_report", "max_min_allocation"),
        ".sweep": ("LatencyPoint", "latency_throughput_sweep"),
    },
)
