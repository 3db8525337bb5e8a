"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-classes are grouped by
subsystem: configuration, simulation, chip-level allocation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A simulator or topology configuration is invalid or inconsistent."""


class UnknownPolicyError(ConfigurationError, KeyError):
    """A QoS policy name is not in the policy registry.

    Carries the offending ``name`` and the ``available`` registered
    names so callers (CLI, campaign validation, spec building) can
    render a precise message.  Also a :class:`KeyError` so mapping-style
    access to the registry (``POLICIES[name]``) keeps ordinary mapping
    semantics (``in``, ``.get``) while raising one structured type.
    """

    def __init__(self, name: str, available: tuple[str, ...]) -> None:
        message = (
            f"unknown QoS policy {name!r}; registered policies: "
            f"{', '.join(available) or '(none)'}"
        )
        super().__init__(message)
        self.name = name
        self.available = tuple(available)

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it readable.
        return self.args[0]


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""


class TraceOverflowError(SimulationError):
    """A trace recorder in ``overflow="raise"`` mode hit its capacity."""


class ExecutionFailed(SimulationError):
    """One or more specs in a batch exhausted their retry budget.

    Raised by the broker-backed executors *after* the rest of the batch
    has completed (no batch abort): ``failures`` holds one
    :class:`~repro.resilience.FailureRecord` per permanently failed
    spec, and ``outcome`` the partial
    :class:`~repro.runtime.executor.ExecutionOutcome` covering
    everything that did succeed, with every attempt's record.
    """

    def __init__(self, message: str, *, failures=(), outcome=None) -> None:
        super().__init__(message)
        self.failures = list(failures)
        self.outcome = outcome


class TopologyError(ConfigurationError):
    """A topology was asked to build a structure it cannot express."""


class TrafficError(ConfigurationError):
    """A traffic pattern or workload specification is invalid."""


class DispatchError(ReproError):
    """The dispatch layer (broker/worker protocol) reached a bad state."""


class TransportError(DispatchError):
    """A broker call failed after exhausting its transport retry budget.

    Raised by the dispatch transports (in-process or HTTP) once the
    :class:`~repro.resilience.RetryPolicy` driving the call gives up.
    :class:`~repro.dispatch.DispatchExecutor` treats it as "broker
    unreachable" and degrades to a local parallel executor.
    """


class CampaignError(ReproError):
    """A campaign spec, manifest, or baseline is invalid or inconsistent."""


class CampaignInterrupted(CampaignError):
    """A campaign run stopped at a checkpoint before completing.

    The on-disk manifest records everything finished so far; re-running
    (or ``repro campaign resume``) continues from the checkpoint.
    """


class AllocationError(ReproError):
    """The chip-level domain allocator could not satisfy a request."""


class ConvexityError(AllocationError):
    """A proposed domain violates the convex-shape requirement."""


class IsolationError(ReproError):
    """A route violates the physical-isolation guarantees of the scheme."""


class ModelError(ReproError):
    """An area/energy model was queried with unsupported parameters."""
