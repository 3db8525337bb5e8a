"""Quality-of-service policies for the shared-region network.

* :class:`~repro.qos.pvc.PvcPolicy` — Preemptive Virtual Clock (Grot,
  Keckler, Mutlu, MICRO 2009), the QoS mechanism the paper adopts for
  every shared-region topology.
* :class:`~repro.qos.gsf.GsfPolicy` — Globally-Synchronized Frames
  (Lee, Ng, Asanović, ISCA 2008), the frame-reservation scheme the
  paper positions PVC against: per-frame injection budgets with source
  throttling instead of preemption.
* :class:`~repro.qos.perflow.PerFlowQueuedPolicy` — an idealised
  preemption-free baseline with per-flow queuing, used as the reference
  for Figure 6's slowdown measurement.
* :class:`~repro.qos.base.NoQosPolicy` — FIFO arbitration with no flow
  state, modelling the unprotected regions of the chip (used by tests
  and the hotspot-starvation demonstration).

Policies are looked up *by name* through :mod:`repro.qos.registry` —
the single source of truth consumed by the runtime, CLI, experiments
and campaigns.  See ``docs/qos.md`` for the policy contract and a
walkthrough of adding a policy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".base": ("NoQosPolicy", "PolicyCapabilities", "QosPolicy"),
        ".flow_table": ("FlowTable",),
        ".gsf": ("GsfPolicy",),
        ".perflow": ("PerFlowQueuedPolicy",),
        ".pvc": ("PROVISIONED_INJECTORS", "PvcPolicy"),
        ".registry": (
            "PolicyEntry",
            "available_policies",
            "create_policy",
            "get_policy",
            "policy_entries",
            "register_policy",
        ),
    },
)
