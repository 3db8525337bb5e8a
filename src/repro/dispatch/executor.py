"""``DispatchExecutor`` — the Executor face of the dispatch layer.

It shares :meth:`~repro.runtime.executor.LeaseExecutor.run` with
:class:`~repro.runtime.executor.ParallelExecutor` (dedup, cache
consultation and write-back, spec-ordered results, every attempt's
failure record), so ``run_batch``, the campaign runner and the CLI can
use it unchanged.  Two modes, selected by the ``target``:

``None`` or a directory path — **local mode**: an in-process
    :class:`~repro.dispatch.broker.Broker` on a :class:`ManualClock`
    drives round-robin :class:`~repro.dispatch.worker.WorkerAgent`\\ s
    over :class:`~repro.dispatch.transport.LocalTransport`.  Fully
    deterministic (lease expiry happens by advancing the manual clock,
    never by wall time), so a run under ``faults`` — every lease fault
    acted out by an in-process agent — converges byte-identically.  A
    directory target additionally persists every accepted result as a
    sha256-addressed artifact.

``http://...`` — **HTTP mode**: specs are submitted to a remote
    :class:`~repro.dispatch.httpd.BrokerServer` and results polled
    back; worker agents run elsewhere (``repro dispatch work``).

Graceful degradation: when the broker is unreachable (transport retry
budget exhausted), or results stop flowing for :data:`STALL_SECONDS`
in HTTP mode, the remaining specs run on a local
:class:`~repro.runtime.executor.ParallelExecutor` and the outcome is
flagged ``degraded``.  Every lease / requeue / duplicate / degrade
counter lands in ``ExecutionOutcome.dispatch`` for the campaign
telemetry rollup.
"""

from __future__ import annotations

import time

from repro.errors import TransportError
from repro.resilience.policy import RetryPolicy
from repro.runtime.executor import LeaseExecutor
from repro.dispatch.broker import Broker
from repro.dispatch.transport import HttpTransport, LocalTransport

#: HTTP mode: seconds without a settled spec before the rest of the
#: batch is taken back in-process, and the results poll interval.
STALL_SECONDS = 120.0
POLL_SECONDS = 0.1


class DispatchExecutor(LeaseExecutor):
    """Executor over the broker/worker dispatch protocol."""

    def __init__(
        self,
        target: str | None = None,
        *,
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        faults=None,
        journal_dir: str | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        super().__init__(jobs or 2, retry, timeout, faults)
        self.target = target
        #: When set, the local broker and every recruited agent journal
        #: their lifecycle events under this directory (one
        #: ``<actor>.journal.jsonl`` per actor).  ``None`` — the
        #: default — records nothing.
        self.journal_dir = journal_dir
        self.remote = target is not None and target.startswith(("http://", "https://"))
        if self.remote:
            self._transport = HttpTransport(target)

    def describe(self) -> str:
        mode = self.target if self.remote else "local"
        return f"dispatch[{mode}, jobs={self.jobs}]"

    def _journal_writer(self, actor: str):
        if self.journal_dir is None:
            return None
        from pathlib import Path

        from repro.obs.fleet.journal import JournalWriter

        path = Path(self.journal_dir) / f"{actor}.journal.jsonl"
        return JournalWriter(path, actor=actor)

    # -- local-mode plumbing -------------------------------------------

    @property
    def broker(self) -> Broker:
        """The persistent in-process broker (local mode only)."""
        self._connect()
        return self._broker

    def _connect(self) -> None:
        if self.remote or self._broker is not None:
            return
        self._local_broker(
            artifact_dir=self.target, journal=self._journal_writer("broker")
        )

    def _recruit(self):
        from repro.dispatch.worker import WorkerAgent

        worker_id = f"local-{len(self._agents)}"
        return WorkerAgent(
            LocalTransport(self._broker),
            worker_id=worker_id,
            journal=self._journal_writer(worker_id),
        )

    def close(self, *, force: bool = False) -> None:
        """Drop broker state and agents (counters reset with them)."""
        if self._broker is not None and self._broker.journal is not None:
            self._broker.journal.close()
        for agent in self._agents:
            if agent.journal is not None:
                agent.journal.close()
        super().close(force=force)

    # -- execution ------------------------------------------------------

    def _collect(self, batch) -> None:
        if not self.remote:
            while len(self._agents) < self.jobs:
                self._agents.append(self._recruit())
            self._run_agents(batch)
            return
        last_progress = time.monotonic()
        while batch.outstanding:
            if batch.collect(self._transport):
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > STALL_SECONDS:
                # Workers stopped delivering (all dead? broker wedged?)
                # — take the rest of the batch back in-process.
                return
            if batch.outstanding:
                time.sleep(POLL_SECONDS)

    def _dispatch_telemetry(self, counters: dict, leftovers: list) -> dict:
        """Counter deltas, plus ``fleet``: point-in-time health gauges
        that the campaign rollup keeps from the last batch, not sums."""
        dispatch = dict(counters)
        dispatch["degraded_specs"] = len(leftovers)
        try:
            status = self._transport.call("status", {})
        except TransportError:
            return dispatch
        dispatch["fleet"] = dict(status.get("gauges", {}))
        dispatch["fleet"]["workers"] = len(status.get("workers", {}))
        return dispatch
