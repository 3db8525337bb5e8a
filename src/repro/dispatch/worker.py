"""The worker side of the dispatch protocol.

A :class:`WorkerAgent` runs the claim → heartbeat → execute → complete
loop against any transport.  It is deliberately paranoid at both ends
of the lease:

* after claiming, it recomputes the spec's content hash from the JSON
  it actually received and refuses to execute a task whose hash does
  not match — a corrupted spec is reported as an ``error`` completion
  rather than silently producing a result under the wrong address;
* before the (potentially long) simulation it heartbeats once; if the
  broker says the lease is gone (expired, reassigned) it abandons the
  task instead of racing the new owner;
* completions ship the result JSON together with its
  :func:`~repro.runtime.cache.payload_sha256` seal, so the broker can
  verify end-to-end integrity before ingesting.

Results are also written into the agent's local
:class:`~repro.runtime.cache.ResultCache` (when given), so a worker
that claims a spec it has seen before answers from cache without
re-simulating — the same location-independence the executors rely on.

Chaos plans reach the agent as a :class:`FaultInjector`: right after a
claim it fires the agent faults keyed on the task's submission serial
and attempt (kill and hang only in a forked agent).
"""

from __future__ import annotations

import time

from repro.errors import TransportError
from repro.resilience.faults import FaultInjector, InjectedFault
from repro.runtime import executor as runtime_executor
from repro.runtime.cache import ResultCache, payload_sha256
from repro.runtime.spec import RunSpec


class WorkerAgent:
    """One claim-execute-complete loop over a transport."""

    def __init__(
        self,
        transport,
        *,
        worker_id: str = "worker-0",
        cache: ResultCache | None = None,
        faults: FaultInjector | None = None,
        journal=None,
    ) -> None:
        self.transport = transport
        self.worker_id = worker_id
        self.cache = cache
        self.faults = faults
        #: Optional :class:`~repro.obs.fleet.JournalWriter`; ``None``
        #: costs one ``is not None`` check per lifecycle event.
        self.journal = journal
        self.vanished = False
        self.counters: dict[str, int] = {
            "claims": 0,
            "completed": 0,
            "cache_hits": 0,
            "errors": 0,
            "abandoned": 0,
        }

    def _record(self, event: str, trace, spec_hash: str, **data) -> None:
        """Append one journal record (call sites guard on ``journal``)."""
        from repro.obs.fleet.spans import span_id

        span = span_id(trace, spec_hash) if trace is not None else None
        self.journal.emit(
            event, trace=trace, span=span, spec_hash=spec_hash, **data
        )

    # -- one protocol round --------------------------------------------

    def step(self) -> str:
        """Claim and finish at most one task.

        Returns ``"idle"`` (queue empty), ``"done"`` (completed ok),
        ``"error"`` (spec failed, reported), ``"abandoned"`` (lease
        lost before execution) or ``"vanished"`` (a chaos plan removed
        this agent; it must not touch the broker again).
        """
        if self.vanished:
            return "vanished"
        response = self.transport.call("claim", {"worker": self.worker_id})
        task = response.get("task")
        if task is None:
            return "idle"
        self.counters["claims"] += 1
        spec_hash = task["spec_hash"]
        lease = task["lease"]
        trace = task.get("trace")
        if self.faults is not None:
            try:
                if self.faults.fire_task_faults(task["serial"], task["attempt"]):
                    # The agent dies holding the lease: no completion, no
                    # heartbeat.  Recovery is the broker's job (lease
                    # expiry), or the executor's when the agent is forked.
                    self.vanished = True
                    return "vanished"
            except InjectedFault as error:
                self._complete_error(spec_hash, lease, repr(error), trace)
                return "error"
        if self.journal is not None:
            self._record("worker.claim", trace, spec_hash, lease=lease)
        try:
            spec = RunSpec.from_json(task["spec"])
            if spec.content_hash != spec_hash:
                raise ValueError(
                    f"spec hash mismatch: task says {spec_hash[:12]}, "
                    f"payload hashes to {spec.content_hash[:12]}"
                )
        except Exception as error:
            self._complete_error(spec_hash, lease, repr(error), trace)
            return "error"
        if self.journal is not None:
            self._record("worker.verify", trace, spec_hash, lease=lease)
        result = self.cache.get(spec) if self.cache is not None else None
        if result is not None:
            self.counters["cache_hits"] += 1
            if self.journal is not None:
                self._record("worker.cache_hit", trace, spec_hash, lease=lease)
        else:
            beat = self.transport.call(
                "heartbeat", {"spec_hash": spec_hash, "lease": lease}
            )
            if not beat.get("ok"):
                self.counters["abandoned"] += 1
                if self.journal is not None:
                    self._record(
                        "worker.abandon", trace, spec_hash, lease=lease
                    )
                return "abandoned"
            started = time.perf_counter()
            try:
                # Looked up on the executor module at call time, so a
                # wrapped entry point also reaches forked agents.
                result = runtime_executor.execute_spec(spec)
            except Exception as error:
                self._complete_error(spec_hash, lease, repr(error), trace)
                return "error"
            if self.journal is not None:
                self._record(
                    "worker.execute",
                    trace,
                    spec_hash,
                    lease=lease,
                    elapsed_s=round(time.perf_counter() - started, 6),
                )
            if self.cache is not None:
                self.cache.put(spec, result)
        result_json = result.to_json()
        self.transport.call(
            "complete",
            {
                "spec_hash": spec_hash,
                "lease": lease,
                "worker": self.worker_id,
                "status": "ok",
                "result": result_json,
                "payload_sha256": payload_sha256(result_json),
            },
        )
        self.counters["completed"] += 1
        if self.journal is not None:
            self._record("worker.complete", trace, spec_hash, lease=lease)
        return "done"

    def _complete_error(self, spec_hash: str, lease: str, detail: str, trace) -> None:
        self.counters["errors"] += 1
        if self.journal is not None:
            self._record(
                "worker.error", trace, spec_hash, lease=lease, kind="error",
                detail=detail,
            )
        try:
            self.transport.call(
                "complete",
                {
                    "spec_hash": spec_hash,
                    "lease": lease,
                    "worker": self.worker_id,
                    "status": "error",
                    "kind": "error",
                    "detail": detail,
                },
            )
        except TransportError:
            # The error report itself was lost; the lease will expire
            # and the task retried elsewhere — nothing more to do here.
            pass

    # -- long-running loop (``repro dispatch work``) -------------------

    def run(
        self,
        *,
        max_tasks: int | None = None,
        max_idle: int | None = None,
        poll_seconds: float = 0.2,
    ) -> dict:
        """Serve until drained, bounded, or vanished; returns counters.

        ``max_idle`` bounds *consecutive* empty claims, so a worker
        that outlives its campaign exits instead of polling forever.
        """
        idle_streak = 0
        while True:
            outcome = self.step()
            if outcome == "vanished":
                break
            if outcome == "idle":
                idle_streak += 1
                if max_idle is not None and idle_streak >= max_idle:
                    break
                time.sleep(poll_seconds)
                continue
            idle_streak = 0
            if max_tasks is not None and self.counters["completed"] >= max_tasks:
                break
        return dict(self.counters)
