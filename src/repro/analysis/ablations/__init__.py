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

Each exposes ``STAGE_DEFAULTS``, ``stage_rows`` and ``format_rows``
(see :mod:`repro.campaign.stages`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        f".{kind}": (kind,)
        for kind in (
            "frame",
            "patience",
            "quota",
            "replica_policy",
            "reserved_vc",
            "topology_extension",
            "window",
        )
    },
)
