"""The lease-granting task broker at the centre of ``repro.dispatch``.

The :class:`Broker` turns a batch of content-hashed specs into leased
tasks: a worker *claims* a task (receiving a lease with a deadline),
*heartbeats* while executing, and *completes* with the result JSON plus
its sha256 seal.  Nothing a worker does can corrupt the batch:

* a lease that is not heartbeated past its deadline expires and the
  task is requeued — abandoned work always lands on another worker;
* completion is idempotent, keyed on the spec's content hash — a
  duplicate delivery (network retry, two workers racing the same
  requeued task) is a counted no-op;
* every delivered result is re-verified against its payload digest and
  its embedded ``spec_hash`` before ingestion — a mangled payload is
  rejected and the task requeued.

The broker never executes anything and never touches the result cache;
it is pure bookkeeping behind :meth:`Broker.handle`, a single
``(op, payload) -> response`` entry point shared verbatim by the
in-process transport and the HTTP server, so both paths exercise the
same state machine.  All mutation happens under one lock, and time
comes from a pluggable clock so tests (and the chaos harness) expire
leases deterministically with :class:`ManualClock`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DispatchError
from repro.resilience.policy import RetryPolicy
from repro.runtime.cache import payload_sha256

#: Broker protocol operations, in rough lifecycle order.
BROKER_OPS = (
    "ping",
    "submit",
    "claim",
    "heartbeat",
    "complete",
    "results",
    "status",
    "metrics",
    "journal",
)

#: Default lease duration (seconds) before an unheartbeated claim is
#: considered abandoned and requeued.
DEFAULT_LEASE_SECONDS = 60.0


class MonotonicClock:
    """Wall-clock time source for real deployments."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock:
    """A clock that only moves when told to — deterministic lease expiry."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clocks do not run backwards")
        self._now += seconds


def spec_hash_of(spec_json: dict) -> str:
    """Content hash of a spec's JSON form, computed broker-side.

    Identical to ``RunSpec.content_hash`` (sha256 over sorted-key,
    compact-separator JSON) without the broker having to materialise a
    :class:`~repro.runtime.spec.RunSpec` — the broker trusts no client
    hash and stays ignorant of simulation internals.
    """
    import hashlib

    canonical = json.dumps(spec_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class _Task:
    """Broker-side state for one spec: queue entry + lease + outcome."""

    spec_json: dict
    label: str
    #: Submission serial: global, in submit order, never reused.
    #: Lease faults key on it (plus ``attempts``).
    serial: int
    status: str = "queued"  # queued | leased | done | failed
    attempts: int = 0
    lease_token: str | None = None
    lease_index: int | None = None
    worker: str | None = None
    deadline: float | None = None
    result: dict | None = None
    digest: str | None = None
    #: One record per error completion, retried or not.
    failures: list[dict] = field(default_factory=list)
    trace: str | None = None  # trace id stamped at submit, echoed on claim


@dataclass
class Broker:
    """Lease-based task queue with idempotent, digest-verified ingestion.

    ``retry`` bounds how many times an *erroring* task (one whose
    worker reported ``status="error"``) is requeued before it is marked
    permanently failed; lease expiry and rejected payloads requeue
    without consuming this budget, because they are infrastructure
    faults, not spec faults.  ``artifact_dir``, when set, persists every
    accepted result as a sha256-addressed JSON artifact — the
    filesystem face of the ``--dispatch DIR`` mode.
    """

    lease_seconds: float = DEFAULT_LEASE_SECONDS
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    clock: MonotonicClock | ManualClock = field(default_factory=MonotonicClock)
    artifact_dir: str | os.PathLike | None = None
    #: Optional :class:`~repro.obs.fleet.JournalWriter` — the fleet
    #: observability seam.  ``None`` (the default) costs one ``is not
    #: None`` check per lifecycle event and nothing else.
    journal: object | None = None
    #: Optional :class:`~repro.resilience.FaultInjector` — the chaos
    #: seam: each granted lease carries the faults its agent must act
    #: out.  HTTP brokers run without one.
    faults: object | None = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._tasks: dict[str, _Task] = {}
        self._queue: list[str] = []  # FIFO of queued spec hashes
        self._lease_serial = 0
        self._submit_serial = 0
        self._workers: dict[str, float] = {}  # worker id -> last-contact clock
        self.counters: dict[str, int] = {
            "submitted": 0,
            "leases_granted": 0,
            "leases_expired": 0,
            "requeues": 0,
            "duplicate_results": 0,
            "rejected_results": 0,
            "stale_completions": 0,
            "completions": 0,
            "task_retries": 0,
            "failed_tasks": 0,
        }

    # -- single entry point --------------------------------------------

    def handle(self, op: str, payload: dict) -> dict:
        """Dispatch one protocol call; the only public mutation path."""
        with self._lock:
            self._expire_leases()
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise DispatchError(f"unknown broker op {op!r}")
            return handler(payload or {})

    # -- journaling -----------------------------------------------------

    def _record(self, event: str, task: _Task | None, **data) -> None:
        """Append one lifecycle record (call sites guard on ``journal``)."""
        from repro.obs.fleet.spans import span_id

        trace = task.trace if task is not None else None
        span = None
        spec_hash = data.get("spec_hash")
        if trace is not None and spec_hash is not None:
            span = span_id(trace, spec_hash)
        self.journal.emit(event, trace=trace, span=span, **data)

    # -- lease bookkeeping ---------------------------------------------

    def _expire_leases(self) -> None:
        now = self.clock.now()
        for spec_hash, task in self._tasks.items():
            if task.status != "leased":
                continue
            if task.deadline is not None and task.deadline <= now:
                self.counters["leases_expired"] += 1
                if self.journal is not None:
                    self._record(
                        "broker.expire",
                        task,
                        spec_hash=spec_hash,
                        lease=task.lease_token,
                        worker=task.worker,
                    )
                self._requeue(spec_hash, task)

    def _requeue(self, spec_hash: str, task: _Task) -> None:
        task.status = "queued"
        task.lease_token = None
        task.deadline = None
        task.worker = None
        self.counters["requeues"] += 1
        if spec_hash not in self._queue:
            self._queue.append(spec_hash)
        if self.journal is not None:
            self._record("broker.requeue", task, spec_hash=spec_hash)

    def _counts(self) -> dict:
        counts = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
        for task in self._tasks.values():
            counts[task.status] += 1
        return counts

    # -- protocol ops ---------------------------------------------------

    def _op_ping(self, payload: dict) -> dict:
        from repro import __version__

        return {"ok": True, "engine": __version__, "counts": self._counts()}

    def _op_submit(self, payload: dict) -> dict:
        accepted = known = 0
        for entry in payload.get("specs", ()):
            spec_json = entry["spec"]
            spec_hash = spec_hash_of(spec_json)
            task = self._tasks.get(spec_hash)
            if task is not None:
                # Idempotent: resubmitting a known spec (resume, second
                # batch sharing work) never duplicates execution.
                if task.trace is None:
                    task.trace = entry.get("trace")
                known += 1
                continue
            task = _Task(
                spec_json=spec_json,
                label=entry.get("label", spec_hash[:12]),
                serial=self._submit_serial,
                trace=entry.get("trace"),
            )
            self._submit_serial += 1
            self._tasks[spec_hash] = task
            self._queue.append(spec_hash)
            accepted += 1
            self.counters["submitted"] += 1
            if self.journal is not None:
                self._record(
                    "broker.submit", task, spec_hash=spec_hash, label=task.label
                )
        return {"ok": True, "accepted": accepted, "known": known}

    def _op_claim(self, payload: dict) -> dict:
        if not self._queue:
            counts = self._counts()
            return {"task": None, "drained": counts["queued"] + counts["leased"] == 0}
        spec_hash = self._queue.pop(0)
        task = self._tasks[spec_hash]
        index = self._lease_serial
        self._lease_serial += 1
        task.status = "leased"
        task.lease_token = f"{spec_hash[:8]}-{index}"
        task.lease_index = index
        task.worker = payload.get("worker", "?")
        task.deadline = self.clock.now() + self.lease_seconds
        self._workers[task.worker] = self.clock.now()
        self.counters["leases_granted"] += 1
        if self.journal is not None:
            self._record(
                "broker.claim",
                task,
                spec_hash=spec_hash,
                label=task.label,
                lease=task.lease_token,
                lease_index=index,
                worker=task.worker,
                attempt=task.attempts,
            )
        granted = {
            "spec_hash": spec_hash,
            "spec": task.spec_json,
            "label": task.label,
            "lease": task.lease_token,
            "lease_index": index,
            "serial": task.serial,
            "attempt": task.attempts,
            "lease_seconds": self.lease_seconds,
            "trace": task.trace,
        }
        if self.faults is not None:
            granted["faults"] = self.faults.lease_faults(task.serial, task.attempts)
        return {"task": granted}

    def _op_heartbeat(self, payload: dict) -> dict:
        spec_hash = payload.get("spec_hash", "")
        task = self._tasks.get(spec_hash)
        if (
            task is None
            or task.status != "leased"
            or task.lease_token != payload.get("lease")
        ):
            # The lease was lost (expired + requeued, or completed by a
            # twin) — the worker should abandon this task.
            if self.journal is not None:
                self._record(
                    "broker.heartbeat",
                    task,
                    spec_hash=spec_hash,
                    lease=payload.get("lease"),
                    ok=False,
                )
            return {"ok": False}
        task.deadline = self.clock.now() + self.lease_seconds
        self._workers[task.worker] = self.clock.now()
        if self.journal is not None:
            self._record(
                "broker.heartbeat",
                task,
                spec_hash=spec_hash,
                lease=task.lease_token,
                ok=True,
            )
        return {"ok": True}

    def _op_complete(self, payload: dict) -> dict:
        spec_hash = payload.get("spec_hash", "")
        task = self._tasks.get(spec_hash)
        if task is None:
            raise DispatchError(f"completion for unknown spec {spec_hash[:12]!r}")
        worker = payload.get("worker")
        if worker:
            self._workers[worker] = self.clock.now()
        if task.status in ("done", "failed"):
            # Idempotent ingestion: the first delivery won; this one is
            # a counted no-op whatever its payload says.
            self.counters["duplicate_results"] += 1
            if self.journal is not None:
                self._record(
                    "broker.complete", task, spec_hash=spec_hash, duplicate=True
                )
            return {"ok": True, "duplicate": True}
        stale = task.status != "leased" or task.lease_token != payload.get("lease")
        if payload.get("status") == "ok":
            result = payload.get("result") or {}
            digest = payload.get("payload_sha256", "")
            if payload_sha256(result) != digest or result.get("spec_hash") != spec_hash:
                # The payload does not verify — a bit got flipped in
                # flight or a worker completed the wrong task.  Reject
                # and requeue; never ingest an unverified result.
                self.counters["rejected_results"] += 1
                if self.journal is not None:
                    self._record(
                        "broker.reject",
                        task,
                        spec_hash=spec_hash,
                        lease=payload.get("lease"),
                    )
                if task.status == "leased":
                    self._requeue(spec_hash, task)
                return {"ok": False, "rejected": True}
            if stale:
                # The lease expired (or was reassigned) but the result
                # verifies — accept it rather than redo the work.
                self.counters["stale_completions"] += 1
                if spec_hash in self._queue:
                    self._queue.remove(spec_hash)
            task.status = "done"
            task.result = result
            task.digest = digest
            task.lease_token = None
            task.deadline = None
            self.counters["completions"] += 1
            self._persist_artifact(spec_hash, result, digest)
            if self.journal is not None:
                self._record(
                    "broker.complete",
                    task,
                    spec_hash=spec_hash,
                    status="ok",
                    stale=stale,
                    worker=worker,
                )
            return {"ok": True}
        # status == "error": the spec itself failed on the worker.
        task.attempts += 1
        failure = {
            "spec_hash": spec_hash,
            "label": task.label,
            "kind": payload.get("kind", "error"),
            "attempt": task.attempts - 1,
            "detail": payload.get("detail", "worker reported failure"),
            "retried": self.retry.should_retry(task.attempts - 1),
        }
        task.failures.append(failure)
        if failure["retried"]:
            self.counters["task_retries"] += 1
            if self.journal is not None:
                self._record(
                    "broker.retry",
                    task,
                    spec_hash=spec_hash,
                    attempt=task.attempts,
                )
            self._requeue(spec_hash, task)
            return {"ok": True, "requeued": True}
        task.status = "failed"
        task.lease_token = None
        task.deadline = None
        self.counters["failed_tasks"] += 1
        if self.journal is not None:
            self._record(
                "broker.fail",
                task,
                spec_hash=spec_hash,
                attempt=task.attempts,
                kind=failure["kind"],
            )
        return {"ok": True, "failed": True}

    def _op_results(self, payload: dict) -> dict:
        """Finished tasks' results plus every attempt's failure record.

        A task's records are reported once it is done or failed, never
        while it is still queued or leased.
        """
        hashes = payload.get("hashes")
        if hashes is None:
            hashes = list(self._tasks)
        results = []
        failures = []
        pending = 0
        for spec_hash in hashes:
            task = self._tasks.get(spec_hash)
            if task is None:
                pending += 1
            elif task.status == "done":
                results.append(
                    {
                        "spec_hash": spec_hash,
                        "result": task.result,
                        "payload_sha256": task.digest,
                    }
                )
                failures.extend(task.failures)
            elif task.status == "failed":
                failures.extend(task.failures)
            else:
                pending += 1
        return {
            "results": results,
            "failures": failures,
            "pending": pending,
            "counters": dict(self.counters),
        }

    def _op_status(self, payload: dict) -> dict:
        return {
            "counts": self._counts(),
            "counters": dict(self.counters),
            "lease_seconds": self.lease_seconds,
            "queue_depth": len(self._queue),
            "gauges": self._gauges(),
            "workers": self._worker_ages(),
        }

    def _gauges(self) -> dict:
        """Derived fleet-health gauges (instantaneous, not cumulative)."""
        now = self.clock.now()
        inflight = 0
        oldest = 0.0
        for task in self._tasks.values():
            if task.status != "leased":
                continue
            inflight += 1
            if task.deadline is not None:
                # The lease was granted ``lease_seconds`` before its
                # deadline (heartbeats push both forward together).
                age = now - (task.deadline - self.lease_seconds)
                oldest = max(oldest, age)
        return {
            "queue_depth": len(self._queue),
            "inflight": inflight,
            "oldest_lease_age_s": round(max(oldest, 0.0), 6),
        }

    def _worker_ages(self) -> dict:
        """Seconds since each known worker last talked to the broker."""
        now = self.clock.now()
        return {
            worker: round(max(now - seen, 0.0), 6)
            for worker, seen in sorted(self._workers.items())
        }

    def _op_metrics(self, payload: dict) -> dict:
        from repro import __version__

        document = self._op_status(payload)
        document["engine"] = __version__
        document["journaling"] = self.journal is not None
        return document

    def _op_journal(self, payload: dict) -> dict:
        limit = int(payload.get("limit") or 100)
        if self.journal is None:
            return {"records": [], "path": None}
        return {
            "records": self.journal.tail(limit),
            "path": str(self.journal.path),
        }

    # -- artifacts ------------------------------------------------------

    def _persist_artifact(self, spec_hash: str, result: dict, digest: str) -> None:
        if self.artifact_dir is None:
            return
        directory = Path(self.artifact_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{spec_hash}.json"
        blob = {"spec_hash": spec_hash, "payload_sha256": digest, "result": result}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(blob, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)

    # -- reset for reuse ------------------------------------------------

    def reset(self) -> None:
        """Forget all tasks (counters and serials survive a campaign)."""
        with self._lock:
            self._tasks.clear()
            self._queue.clear()
