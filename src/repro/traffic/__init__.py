"""Synthetic traffic: destination patterns and workload builders.

The paper evaluates the shared column on stochastic synthetic traffic
(Table 1: hotspot, uniform random, tornado; 1- and 4-flit packets) plus
two crafted adversarial workloads that defeat PVC's preemption throttles
(Section 5.3).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".patterns": (
            "bit_reversal",
            "hotspot",
            "nearest_neighbor",
            "tornado",
            "uniform_random",
        ),
        ".workloads": (
            "WORKLOAD1_RATES",
            "WORKLOAD2_EXTRA_RATE",
            "full_column_workload",
            "hotspot_all_injectors",
            "tornado_workload",
            "uniform_workload",
            "workload1",
            "workload2",
        ),
    },
)
