"""Analysis utilities and the per-figure experiment harness.

``repro.analysis.experiments`` contains one module per paper result
(Figure 3, Figure 4a/4b, Table 2, Figure 5a/5b, Figure 6a/6b, Figure 7,
and the Section 5.2 saturation-preemption statistics); each returns
structured results and can render the same rows the paper reports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".chip_study": ("format_chip_study", "run_chip_study"),
        ".fairness": ("FairnessReport", "fairness_report", "max_min_allocation"),
        ".report": ("ReportOptions", "generate_report", "write_report"),
        ".sweep": ("LatencyPoint", "latency_throughput_sweep"),
    },
)
