"""One module per paper result.

=====================  =============================================
module                 paper result
=====================  =============================================
``fig3_area``          Figure 3 — router area overhead
``fig4_latency``       Figure 4 — latency/throughput, random+tornado
``saturation``         Section 5.2 — preemption rates in saturation
``table2_fairness``    Table 2 — hotspot throughput fairness
``fig5_preemption``    Figure 5 — adversarial preemption rates
``fig6_slowdown``      Figure 6 — slowdown + deviation from max-min
``fig7_energy``        Figure 7 — router energy per flit by hop type
``burst_fairness``     extension — QoS under bursty/replayed traffic
``pvc_vs_gsf``         extension — PVC vs GSF head-to-head
=====================  =============================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".burst_fairness": ("run_burst_fairness",),
        ".fig3_area": ("run_fig3",),
        ".fig4_latency": ("run_fig4",),
        ".fig5_preemption": ("run_fig5",),
        ".fig6_slowdown": ("run_fig6",),
        ".fig7_energy": ("run_fig7",),
        ".pvc_vs_gsf": ("run_pvc_vs_gsf",),
        ".saturation": ("run_saturation",),
        ".table2_fairness": ("run_table2",),
    },
)
