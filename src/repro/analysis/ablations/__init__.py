"""Ablation studies over the design choices the paper leans on.

Each module isolates one mechanism and measures what the evaluation
would look like without (or with different sizing of) it:

=====================  ====================================================
module                 question
=====================  ====================================================
``quota``              how much does the reserved per-frame quota damp
                       adversarial preemption?
``reserved_vc``        what does the rate-compliant reserved VC buy?
``patience``           preemption-trigger sensitivity (inversion
                       detection window)
``frame``              frame length: guarantee granularity vs preemption
                       exposure
``window``             source retransmission window vs throughput
``replica_policy``     per-packet round-robin (the paper's thrash) vs
                       static per-flow replica pinning
``topology_extension`` the flattened-butterfly alternative the paper
                       names but does not evaluate
=====================  ====================================================
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".frame": ("run_frame_ablation",),
        ".patience": ("run_patience_ablation",),
        ".quota": ("run_quota_ablation",),
        ".replica_policy": ("run_replica_ablation",),
        ".reserved_vc": ("run_reserved_vc_ablation",),
        ".topology_extension": ("run_fbfly_study",),
        ".window": ("run_window_ablation",),
    },
)
