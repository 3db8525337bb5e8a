"""Retry policy and failure records for the fault-tolerant runtime.

:class:`RetryPolicy` is fully deterministic: the backoff delay for a
given ``(spec_hash, attempt)`` pair is a pure function of the policy's
seed, so a retried run schedules *identical* delays every time — chaos
runs in CI reproduce bit-for-bit, and no wall-clock randomness leaks
into campaign manifests.  :class:`FailureRecord` is the structured
replacement for the old batch-aborting exception: every crash, timeout
or in-spec error becomes one JSON-serialisable record that flows into
``ExecutionOutcome.failures`` and ``manifest["telemetry"]``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

#: The failure taxonomy: a worker process died (``crash``), a spec ran
#: past its wall-clock budget (``timeout``), or :func:`execute_spec`
#: raised (``error``).
FAILURE_KINDS = ("crash", "timeout", "error")


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded-retry policy with seeded exponential backoff.

    ``max_attempts`` counts *total* attempts (1 = never retry).  The
    delay before attempt ``n+1`` after attempt ``n`` (0-based) fails is
    ``min(backoff_max, backoff_base * backoff_factor**n)`` scaled by a
    deterministic jitter fraction derived from
    ``sha256(seed:spec_hash:n)`` — never from the wall clock or a
    shared RNG, so concurrent retries cannot perturb each other.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) leaves budget for another."""
        return attempt + 1 < self.max_attempts

    def delay(self, spec_hash: str, attempt: int) -> float:
        """Seconds to wait before re-running after attempt ``attempt`` failed."""
        raw = self.backoff_base * self.backoff_factor**attempt
        capped = min(self.backoff_max, raw)
        if capped <= 0 or self.jitter <= 0:
            return max(0.0, capped)
        digest = hashlib.sha256(
            f"{self.seed}:{spec_hash}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return capped * (1.0 + self.jitter * fraction)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> RetryPolicy:
        return cls(**payload)


@dataclass(frozen=True)
class FailureRecord:
    """One observed failure of one attempt at one spec."""

    spec_hash: str
    label: str
    kind: str  # one of FAILURE_KINDS
    attempt: int
    detail: str
    retried: bool

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> FailureRecord:
        return cls(**payload)

    def describe(self) -> str:
        fate = "retried" if self.retried else "permanent"
        return (
            f"{self.kind} on {self.label} ({self.spec_hash[:12]}) "
            f"attempt {self.attempt}: {self.detail} [{fate}]"
        )
