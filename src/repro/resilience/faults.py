"""Deterministic fault injection for chaos runs.

A :class:`FaultPlan` is pure, seeded, JSON-round-trippable data: each
:class:`Fault` names a *kind* and the deterministic index at which it
fires.  Agent-side faults (``worker_kill``, ``worker_hang``,
``spec_error``, ``worker_vanish``) key on the broker's task submission
serial — assigned in spec order, so it does not depend on scheduling —
plus the attempt number (a fault with ``attempts=1`` fires on attempt
0 only, so the retry succeeds).  Parent-side faults (``adapter_error``,
``corrupt_cache``, ``torn_manifest``) key on the runner's shard
execution / cache put / manifest save counters.

:class:`FaultInjector` is the mutable activation of a plan: the
parallel executor hands the plan to each forked agent (which builds
its own injector with ``in_worker=True``), while the campaign runner
and ``ResultCache.put_hook`` consult a parent-side injector directly.
Because every trigger is a counter, not a clock, the same plan against
the same campaign fires the same faults every run.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field, replace

from repro.errors import ReproError

#: Everything the harness knows how to break, in one place.
FAULT_KINDS = (
    "worker_kill",  # SIGKILL the agent process that claims task `at`
    "worker_hang",  # sleep `seconds` in the agent that claims task `at`
    "spec_error",  # report an error instead of executing task `at`
    "adapter_error",  # raise InjectedFault in shard execution `at`
    "corrupt_cache",  # overwrite the blob written by cache put `at`
    "torn_manifest",  # truncate the manifest written by save `at`
    "drop_request",  # drop dispatch transport call `at` (retried, then lost)
    "duplicate_result",  # deliver dispatch completion `at` twice
    "delay_response",  # sleep `seconds` before transport call `at` lands
    "partition_worker",  # drop `attempts` consecutive calls from call `at`
    "worker_vanish",  # the agent that claims task `at` disappears with it
)

#: Faults a :class:`~repro.dispatch.WorkerAgent` fires right after a
#: claim, keyed on the task's submission serial plus its attempt.
_WORKER_KINDS = frozenset(
    {"worker_kill", "worker_hang", "spec_error", "worker_vanish"}
)

#: Faults the dispatch legs of a chaos run exist to absorb.
#: ``drop_request``/``delay_response``/``partition_worker`` key on the
#: transport's global call counter and ``duplicate_result`` on the
#: completion-call counter — all counters, so network chaos replays
#: bit-for-bit.  ``worker_vanish`` is an agent fault, recovered by
#: lease expiry.
_NETWORK_KINDS = frozenset(
    {
        "drop_request",
        "duplicate_result",
        "delay_response",
        "partition_worker",
        "worker_vanish",
    }
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

    ``attempts`` bounds how many attempts of the same task the fault
    hits (worker/spec/adapter kinds): with the default of 1 the first
    attempt fails and the retry goes through clean, which is what lets
    a chaos run converge.  ``seconds`` is the ``worker_hang`` sleep.
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

    def worker_faults(self) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in _WORKER_KINDS)

    def network_faults(self) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in _NETWORK_KINDS)

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


#: The chaos plan CI runs: every built-in fault kind fires once, early
#: enough to hit the smoke campaign's first stages, and the run is
#: interrupted shortly after so resume-convergence is exercised too.
BUILTIN_PLANS: dict[str, FaultPlan] = {
    "none": FaultPlan(name="none", seed=0, faults=()),
    "smoke": FaultPlan(
        name="smoke",
        seed=7,
        faults=(
            Fault(kind="worker_kill", at=1),
            Fault(kind="worker_hang", at=3, seconds=30.0),
            Fault(kind="spec_error", at=5),
            Fault(kind="adapter_error", at=1),
            Fault(kind="corrupt_cache", at=2),
            Fault(kind="torn_manifest", at=2),
            # Network kinds are inert in the parallel legs (the pipe
            # transport has no fault seam); the dispatch legs of `chaos
            # run --dispatch` fire them.  Same values as the focused
            # "dispatch" plan below.
            Fault(kind="drop_request", at=2),
            Fault(kind="duplicate_result", at=1),
            Fault(kind="delay_response", at=6, seconds=0.01),
            Fault(kind="partition_worker", at=12, attempts=4),
            Fault(kind="worker_vanish", at=3),
        ),
        interrupt_after_shards=4,
    ),
    # Network chaos for the dispatch layer: a claim is dropped (the
    # transport retries), a completion is delivered twice (idempotent
    # ingestion absorbs it), a response is delayed, a worker is
    # partitioned past its transport retry budget (the executed result
    # is lost; the lease expires and the task lands elsewhere), and the
    # agent holding lease 3 vanishes outright.  The interrupt exercises
    # resume-convergence on top.
    "dispatch": FaultPlan(
        name="dispatch",
        seed=11,
        faults=(
            Fault(kind="drop_request", at=2),
            Fault(kind="duplicate_result", at=1),
            Fault(kind="delay_response", at=6, seconds=0.01),
            Fault(kind="partition_worker", at=12, attempts=4),
            Fault(kind="worker_vanish", at=3),
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
    """Mutable activation of a :class:`FaultPlan`.

    One injector lives in the parent (adapter/cache/manifest faults +
    the interrupt hook); each forked agent builds its own from the plan
    with ``in_worker=True`` so SIGKILL and hangs only ever hit agent
    processes.  ``fired`` logs every activation for
    telemetry.
    """

    plan: FaultPlan
    in_worker: bool = False
    fired: list[dict] = field(default_factory=list)
    _shard_runs: int = 0
    _cache_puts: int = 0
    _manifest_saves: int = 0
    _checkpoints: int = 0
    _transport_calls: int = 0
    _complete_calls: int = 0
    _vanished: set = field(default_factory=set)

    def _record(self, fault: Fault, where: str, attempt: int | None = None) -> None:
        event = {"kind": fault.kind, "at": fault.at, "where": where}
        if attempt is not None:
            event["attempt"] = attempt
        self.fired.append(event)

    # -- agent-side (task) faults -------------------------------------

    def fire_task_faults(self, serial: int, attempt: int) -> bool:
        """Apply the agent faults for one claimed task attempt.

        Called by a :class:`~repro.dispatch.WorkerAgent` right after a
        claim.  Kill and hang fire only in a forked agent
        (``in_worker``); in-process agents skip them, since the
        degraded path exists precisely to stop losing processes.
        ``spec_error`` raises :class:`InjectedFault`.  Returns True when
        the agent vanishes holding the lease; a vanish fires once per
        ``(serial, attempt)``, because its lease expires without
        charging an attempt.
        """
        for fault in self.plan.faults:
            if fault.kind not in _WORKER_KINDS:
                continue
            if fault.at != serial or attempt >= fault.attempts:
                continue
            if fault.kind == "worker_kill":
                if self.in_worker:
                    self._record(fault, "worker", attempt)
                    os.kill(os.getpid(), signal.SIGKILL)
            elif fault.kind == "worker_hang":
                if self.in_worker:
                    self._record(fault, "worker", attempt)
                    time.sleep(fault.seconds)
            elif fault.kind == "spec_error":
                self._record(fault, "worker" if self.in_worker else "task", attempt)
                raise InjectedFault(
                    f"injected spec_error at task {serial} attempt {attempt}"
                )
            elif (serial, attempt) not in self._vanished:
                self._vanished.add((serial, attempt))
                self._record(fault, f"task#{serial}", attempt)
                return True
        return False

    # -- parent-side (campaign/store) faults --------------------------

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

    # -- dispatch-side (network) faults --------------------------------

    def fire_transport_fault(self, op: str) -> Fault | None:
        """The network fault (if any) hitting this transport call.

        Consulted by :class:`~repro.dispatch.LocalTransport` before
        every broker call.  Keys on the global transport-call counter
        (``partition_worker`` spans ``attempts`` consecutive calls);
        ``duplicate_result`` keys on the completion-call counter so it
        targets result ingestion specifically.  Returns the matching
        :class:`Fault` — the transport decides what dropping, delaying
        or duplicating actually means.
        """
        index = self._transport_calls
        self._transport_calls += 1
        complete_index = None
        if op == "complete":
            complete_index = self._complete_calls
            self._complete_calls += 1
        for fault in self.plan.faults:
            if fault.kind == "duplicate_result":
                if complete_index is not None and fault.at == complete_index:
                    self._record(fault, f"{op}#{index}")
                    return fault
            elif fault.kind in ("drop_request", "delay_response"):
                if fault.at <= index < fault.at + fault.attempts:
                    self._record(fault, f"{op}#{index}")
                    return fault
            elif fault.kind == "partition_worker":
                if fault.at <= index < fault.at + fault.attempts:
                    self._record(fault, f"{op}#{index}")
                    return fault
        return None

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
