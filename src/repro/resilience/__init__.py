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

``chaos`` is imported lazily: it depends on :mod:`repro.campaign`,
which itself (via the executor) imports this package.
"""

from repro.resilience.faults import (
    BUILTIN_PLANS,
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    load_plan,
)
from repro.resilience.policy import FailureRecord, RetryPolicy

__all__ = [
    "BUILTIN_PLANS",
    "ChaosReport",
    "FAULT_KINDS",
    "FailureRecord",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "load_plan",
    "run_chaos",
]

_LAZY = {"ChaosReport", "run_chaos"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.resilience import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
