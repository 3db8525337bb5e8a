"""repro.resilience — failure-tolerant execution for the runtime.

The paper's mechanism treats loss as a protocol event (PVC discards
preempted packets and retransmits); this package gives the *runtime*
the same stance.  Three pieces:

* :mod:`~repro.resilience.policy` — deterministic
  :class:`RetryPolicy` (seeded exponential backoff, no wall-clock
  randomness) and structured :class:`FailureRecord`\\ s.  The lease
  broker behind every parallel executor charges crashes, timeouts and
  spec errors against the policy's attempt budget.
* :mod:`~repro.resilience.faults` — seeded, counter-keyed
  :class:`FaultPlan`\\ s (worker kill/hang, spec/adapter errors,
  cache corruption, torn manifest writes) so chaos is reproducible.
* :mod:`~repro.resilience.chaos` — the three-leg harness proving a
  killed/corrupted/hung campaign converges to digests byte-identical
  to an undisturbed serial run.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".chaos": ("ChaosReport", "run_chaos"),
        ".faults": (
            "BUILTIN_PLANS",
            "FAULT_KINDS",
            "Fault",
            "FaultInjector",
            "FaultPlan",
            "InjectedFault",
            "load_plan",
        ),
        ".policy": ("FailureRecord", "RetryPolicy"),
    },
)
