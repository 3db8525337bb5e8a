"""Deterministic fault injection for chaos runs.

A :class:`FaultPlan` is pure, seeded, JSON-round-trippable data: each
:class:`Fault` names a *kind* and the deterministic index at which it
fires.  The eight lease kinds key on the broker's task submission
serial — assigned in spec order, so it does not depend on scheduling —
plus the attempt number (a fault with ``attempts=1`` hits attempt 0
only, so the retry succeeds).  The three campaign kinds
(``adapter_error``, ``corrupt_cache``, ``torn_manifest``) key on the
runner's shard execution / cache put / manifest save counters.

One :class:`FaultInjector` per run decides every fault, in the parent:
the broker asks it which faults ride each lease it grants, the agent
holding the lease acts them out, and the campaign runner and
``ResultCache.put_hook`` call its hooks directly.  Because every
trigger is a counter, not a clock, the same plan against the same
campaign fires the same faults every run.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

from repro.errors import ReproError

#: Faults that ride a lease: the broker stamps them on the task whose
#: submission serial is ``at`` as it grants the lease, and the agent
#: holding the lease acts them out.
LEASE_KINDS = (
    "worker_kill",  # SIGKILL the forked agent (an in-process one vanishes)
    "worker_hang",  # sleep `seconds` in the forked agent (in-process: vanish)
    "spec_error",  # report an error instead of executing the task
    "worker_vanish",  # the agent disappears holding the lease
    "drop_request",  # the lease's next broker call is lost, then resent
    "duplicate_result",  # the completion is delivered twice
    "delay_response",  # sleep `seconds` before completing
    "partition_worker",  # every call on the lease is lost; the agent gives it up
)

#: Everything the harness knows how to break, in one place.
FAULT_KINDS = (
    *LEASE_KINDS,
    "adapter_error",  # raise InjectedFault in shard execution `at`
    "corrupt_cache",  # overwrite the blob written by cache put `at`
    "torn_manifest",  # truncate the manifest written by save `at`
)


class InjectedFault(RuntimeError):
    """The deliberate failure a fault plan injects.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults must travel the same generic-``Exception`` recovery paths a
    real adapter or spec crash would.
    """


@dataclass(frozen=True)
class Fault:
    """One deterministic failure: ``kind`` fires at counter value ``at``.

    ``attempts`` bounds how many attempts of the same task (or shard
    execution) the fault hits: with the default of 1 the first attempt
    fails and the retry goes through clean, which is what lets a chaos
    run converge.  ``seconds`` is the ``worker_hang`` and
    ``delay_response`` sleep.
    """

    kind: str
    at: int
    attempts: int = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> Fault:
        return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults plus an optional mid-run interrupt."""

    name: str = "custom"
    seed: int = 0
    faults: tuple[Fault, ...] = ()
    interrupt_after_shards: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def without_interrupt(self) -> FaultPlan:
        """The same faults, but the run goes to completion (resume leg)."""
        return replace(self, interrupt_after_shards=None)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [fault.to_json() for fault in self.faults],
            "interrupt_after_shards": self.interrupt_after_shards,
        }

    @classmethod
    def from_json(cls, payload: dict) -> FaultPlan:
        return cls(
            name=payload.get("name", "custom"),
            seed=payload.get("seed", 0),
            faults=tuple(
                Fault.from_json(entry) for entry in payload.get("faults", ())
            ),
            interrupt_after_shards=payload.get("interrupt_after_shards"),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


#: The chaos plan CI runs: every built-in fault kind fires once.  The
#: eight lease faults sit on the eight specs the smoke campaign submits
#: before the interrupt (fig4's two shards), one serial each, so every
#: kind fires in the interrupted leg and again in the resume leg.
BUILTIN_PLANS: dict[str, FaultPlan] = {
    "none": FaultPlan(name="none", seed=0, faults=()),
    "smoke": FaultPlan(
        name="smoke",
        seed=7,
        faults=(
            Fault(kind="worker_kill", at=0),
            Fault(kind="spec_error", at=1),
            Fault(kind="drop_request", at=2),
            Fault(kind="duplicate_result", at=3),
            Fault(kind="worker_hang", at=4, seconds=30.0),
            Fault(kind="delay_response", at=5, seconds=0.01),
            Fault(kind="partition_worker", at=6),
            Fault(kind="worker_vanish", at=7),
            Fault(kind="adapter_error", at=1),
            Fault(kind="corrupt_cache", at=2),
            Fault(kind="torn_manifest", at=2),
        ),
        interrupt_after_shards=4,
    ),
}


def load_plan(name_or_path: str) -> FaultPlan:
    """A built-in plan by name, or a plan JSON file by path."""
    plan = BUILTIN_PLANS.get(name_or_path)
    if plan is not None:
        return plan
    path = os.fspath(name_or_path)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return FaultPlan.from_json(json.load(handle))
    raise ReproError(
        f"unknown fault plan {name_or_path!r}: not one of "
        f"{sorted(BUILTIN_PLANS)} and no such file"
    )


@dataclass
class FaultInjector:
    """Mutable activation of a :class:`FaultPlan`: one per run, in the parent.

    The broker consults :meth:`lease_faults` as it grants each lease;
    the campaign runner and the cache call the campaign hooks.
    ``fired`` logs every activation for telemetry.
    """

    plan: FaultPlan
    fired: list[dict] = field(default_factory=list)
    _shard_runs: int = 0
    _cache_puts: int = 0
    _manifest_saves: int = 0
    _checkpoints: int = 0
    _stamped: set = field(default_factory=set)

    def _record(self, fault: Fault, where: str, attempt: int | None = None) -> None:
        event = {"kind": fault.kind, "at": fault.at, "where": where}
        if attempt is not None:
            event["attempt"] = attempt
        self.fired.append(event)

    # -- lease faults --------------------------------------------------

    def lease_faults(self, serial: int, attempt: int) -> list[dict]:
        """The faults riding the lease on attempt ``attempt`` of task ``serial``.

        Each entry is ``{"kind", "seconds"}`` for the agent to act out.
        A lease is stamped once per ``(serial, attempt)``: a vanish, a
        partition or an in-process kill or hang costs the lease without
        charging an attempt, so the same attempt is granted again and
        must go through clean.
        """
        if (serial, attempt) in self._stamped:
            return []
        stamp = []
        for fault in self.plan.faults:
            if (
                fault.kind in LEASE_KINDS
                and fault.at == serial
                and attempt < fault.attempts
            ):
                self._record(fault, f"task#{serial}", attempt)
                stamp.append({"kind": fault.kind, "seconds": fault.seconds})
        if stamp:
            self._stamped.add((serial, attempt))
        return stamp

    # -- campaign faults -----------------------------------------------

    def fire_adapter_error(self, stage: str, shard: int, attempt: int) -> None:
        """Raise on the matching shard execution; counts executions."""
        if attempt == 0:
            index = self._shard_runs
            self._shard_runs += 1
        else:
            # Retries belong to the execution that just failed, not a
            # new one — same index, so multi-attempt faults keep firing.
            index = self._shard_runs - 1
        for fault in self.plan.faults:
            if fault.kind != "adapter_error":
                continue
            if fault.at == index and attempt < fault.attempts:
                self._record(fault, f"{stage}[{shard}]", attempt)
                raise InjectedFault(
                    f"injected adapter_error in {stage} shard {shard} "
                    f"(execution {index}, attempt {attempt})"
                )

    def on_cache_put(self, path: str | os.PathLike) -> None:
        """Corrupt the blob written by the matching cache put."""
        index = self._cache_puts
        self._cache_puts += 1
        for fault in self.plan.faults:
            if fault.kind == "corrupt_cache" and fault.at == index:
                self._record(fault, os.fspath(path))
                with open(path, "r+b") as handle:
                    handle.seek(0)
                    handle.write(b"\x00CORRUPT\x00")

    def on_manifest_save(self, path: str | os.PathLike) -> None:
        """Tear the manifest written by the matching save (truncate)."""
        index = self._manifest_saves
        self._manifest_saves += 1
        for fault in self.plan.faults:
            if fault.kind == "torn_manifest" and fault.at == index:
                self._record(fault, os.fspath(path))
                data = open(path, "rb").read()
                with open(path, "wb") as handle:
                    handle.write(data[: max(1, len(data) * 3 // 5)])

    # -- interrupt hook ------------------------------------------------

    def stop_hook(self):
        """A ``stop_after`` hook honouring ``interrupt_after_shards``."""
        limit = self.plan.interrupt_after_shards
        if limit is None:
            return None

        def stop_after(stage: str, shard: int) -> bool:
            self._checkpoints += 1
            if self._checkpoints >= limit:
                self.fired.append(
                    {"kind": "interrupt", "at": limit, "where": f"{stage}[{shard}]"}
                )
                return True
            return False

        return stop_after

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for event in self.fired:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts
