"""Analysis utilities and the per-result experiment modules.

``repro.analysis.experiments`` holds one module per paper result
(Figures 3–7, Table 2, the Section 5.2 saturation study) and the
extensions, ``repro.analysis.ablations`` one per design-choice ablation,
and ``chip_study`` the shared-column placement study.  Each module's
``stage_rows(params, *, seed, executor, cache)`` resolves ``params`` over
its ``STAGE_DEFAULTS``, runs the study's specs as one runtime batch and
returns the plain rows a campaign stage records; its ``format_rows``
renders those rows as the paper's table.  The experiment table in
:mod:`repro.campaign.stages` names every such module once.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".chip_study": ("chip_study",),
        ".fairness": ("FairnessReport", "fairness_report", "max_min_allocation"),
    },
)
