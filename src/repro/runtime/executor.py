"""Executors: map batches of :class:`RunSpec` to :class:`RunResult`.

Every executor shares the same contract:

* duplicate specs in one batch are simulated once (content-hash dedup);
* the cache (if given) is consulted before simulating and written back
  after;
* result order matches spec order;
* every executor produces *equal* results for the same batch, because
  :func:`execute_spec` is deterministic given the spec.

:class:`SerialExecutor` is the plain in-process reference.  Everything
parallel schedules through one mechanism, the lease table of a
:class:`~repro.dispatch.Broker`: :meth:`LeaseExecutor.run` submits the
un-cached specs, worker agents claim, run and complete them, and the
executor collects results and failure records.
:class:`ParallelExecutor` keeps the broker in the parent and forks
``jobs`` agents that reach it over pipes;
:class:`~repro.dispatch.DispatchExecutor` drives in-process agents or
an HTTP broker.  The agents report results as sha256-sealed JSON and
the parent owns all cache writes.

Failures do not abort the batch: every failed attempt becomes a
structured :class:`~repro.resilience.FailureRecord`, and only after the
rest of the batch has completed does the executor raise
:class:`~repro.errors.ExecutionFailed` carrying the records and the
partial outcome.

Every executor reports each completed spec, and each finished batch
(a failed one too), to the recorders attached to it — the campaign
runner's per-stage :class:`~repro.obs.telemetry.TelemetryRecorder`
and the CLI's ``--obs`` one.
"""

from __future__ import annotations

import os
import time
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing import get_context
from multiprocessing.connection import wait

from repro.errors import DispatchError, ExecutionFailed, TransportError
from repro.resilience.policy import FailureRecord, RetryPolicy
from repro.runtime.cache import ResultCache
from repro.runtime.spec import EXECUTE_SPEC_IMPORTS, RunResult, RunSpec, execute_spec

#: ``progress(done, total, spec, cached)`` — invoked once per spec as
#: its result becomes available (cache hits first, then simulations).
ProgressCallback = Callable[[int, int, RunSpec, bool], None]

#: Lease length on an in-parent broker's manual clock.  That clock only
#: moves when the executor advances it past a lease to requeue work an
#: in-process agent abandoned, so no lease ever expires by wall time.
LEASE_SECONDS = 30.0


@dataclass
class ExecutionOutcome:
    """A batch's results plus the counters the run manifest reports.

    The resilience fields default to "nothing went wrong", so callers
    written against the original four fields keep working unchanged.
    """

    results: list[RunResult]
    cache_hits: int
    simulated: int
    elapsed_seconds: float
    #: Every failed attempt's record, retried or permanent.
    failures: list[FailureRecord] = field(default_factory=list)
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    degraded: bool = False
    #: Broker/lease counters from :class:`~repro.dispatch.DispatchExecutor`
    #: (empty for local executors) — numeric values only, so telemetry
    #: can sum them across batches.
    dispatch: dict = field(default_factory=dict)


class Executor:
    """Interface shared by every executor."""

    jobs: int = 1
    #: What each completed spec and finished batch is reported to: any
    #: object with ``on_spec`` and ``on_batch`` (see :meth:`attach`).
    recorders: tuple = ()
    _trace_context: str | None = None

    def describe(self) -> str:
        raise NotImplementedError

    def attach(self, recorder) -> None:
        """Report to ``recorder`` until :meth:`detach`.

        It gets ``on_spec(done, total, spec, cached, at_seconds)`` as
        each spec's result becomes available and ``on_batch(specs,
        outcome, failed)`` as each batch ends, where ``failed`` are the
        permanent failure records of a batch that raises
        :class:`ExecutionFailed`.
        """
        self.recorders = (*self.recorders, recorder)

    def detach(self, recorder) -> None:
        self.recorders = tuple(r for r in self.recorders if r is not recorder)

    def set_trace_context(self, trace: str | None) -> None:
        """Pin the trace id stamped on subsequent submits.

        The campaign runner sets this to the stage/shard-derived trace
        before each shard, so journal records on every actor share one
        id per shard.  ``None`` reverts to per-batch trace derivation;
        an executor without a broker stamps nothing.
        """
        self._trace_context = trace

    def run(
        self,
        specs: Sequence[RunSpec],
        *,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
    ) -> ExecutionOutcome:
        raise NotImplementedError

    def map(
        self,
        specs: Sequence[RunSpec],
        *,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
    ) -> list[RunResult]:
        """Results only — convenience over :meth:`run`."""
        return self.run(specs, cache=cache, progress=progress).results

    # -- shared plumbing ---------------------------------------------

    def _batch(self, specs, cache, progress) -> _Batch:
        """A new batch whose completions also reach every recorder."""
        started = time.perf_counter()
        recorders = self.recorders
        if not recorders:
            return _Batch(specs, cache, progress, started)

        def observe(done, total, spec, cached):
            at_seconds = time.perf_counter() - started
            for recorder in recorders:
                recorder.on_spec(done, total, spec, cached, at_seconds)
            if progress is not None:
                progress(done, total, spec, cached)

        return _Batch(specs, cache, observe, started)

    def _finish(self, batch: _Batch, **counters) -> ExecutionOutcome:
        """The batch's outcome, reported to every recorder.

        Raises :class:`ExecutionFailed` (after reporting) when a spec
        failed permanently.
        """
        permanent = [record for record in batch.failures if not record.retried]
        outcome = ExecutionOutcome(
            results=[] if permanent else batch.results(),
            cache_hits=batch.hits,
            simulated=len(batch.pending) - len(permanent),
            elapsed_seconds=time.perf_counter() - batch.started,
            failures=batch.failures,
            **counters,
        )
        for recorder in self.recorders:
            recorder.on_batch(batch.specs, outcome, permanent)
        if permanent:
            names = ", ".join(
                f"{record.label} ({record.kind})" for record in permanent[:4]
            )
            more = len(permanent) - 4
            raise ExecutionFailed(
                f"{len(permanent)} spec(s) failed permanently after "
                f"retries: {names}{f' (+{more} more)' if more > 0 else ''}",
                failures=permanent,
                outcome=outcome,
            )
        return outcome


class SerialExecutor(Executor):
    """In-process, one spec at a time — the reference executor."""

    jobs = 1

    def describe(self) -> str:
        return "serial"

    def run(self, specs, *, cache=None, progress=None):
        batch = self._batch(specs, cache, progress)
        batch.simulate_in_process()
        return self._finish(batch)


class _Batch:
    """One ``run``'s specs on their way to results.

    Duplicate specs collapse onto one simulation; counters and the
    progress callback run over the *unique* specs.  Cache hits land at
    once; the rest (``pending``) stay ``outstanding`` until a result is
    absorbed or their last attempt fails.
    """

    def __init__(self, specs, cache, progress, started: float) -> None:
        self.specs = specs
        self.started = started
        self.failures: list[FailureRecord] = []
        self._cache = cache
        self._progress = progress
        self._resolved: dict[str, RunResult] = {}
        unique: dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_hash, spec)
        self._total = len(unique)
        self.outstanding: dict[str, RunSpec] = {}
        for key, spec in unique.items():
            cached = cache.get(spec) if cache is not None else None
            if cached is None:
                self.outstanding[key] = spec
            else:
                self._land(spec, cached, True)
        self.hits = len(self._resolved)
        self.pending = list(self.outstanding.values())

    def _land(self, spec: RunSpec, result: RunResult, cached: bool) -> None:
        self._resolved[spec.content_hash] = result
        if self._progress is not None:
            self._progress(len(self._resolved), self._total, spec, cached)

    def absorb(self, spec: RunSpec, result: RunResult) -> None:
        if self._cache is not None:
            self._cache.put(spec, result)
        self._land(spec, result, False)

    def results(self) -> list[RunResult]:
        """Results in spec order (duplicates share one)."""
        return [self._resolved[spec.content_hash] for spec in self.specs]

    def simulate_in_process(self) -> None:
        for spec in self.pending:
            self.absorb(spec, execute_spec(spec))

    def collect(self, transport) -> bool:
        """Pull settled specs out of the broker; True if any landed.

        The broker reports a task's attempt records only once it is
        done or failed, so each record arrives exactly once.
        """
        try:
            response = transport.call("results", {"hashes": list(self.outstanding)})
        except TransportError:
            return False
        landed = False
        for entry in response["results"]:
            spec = self.outstanding.pop(entry["spec_hash"], None)
            if spec is not None:
                self.absorb(spec, RunResult.from_json(entry["result"]))
                landed = True
        for payload in response["failures"]:
            record = FailureRecord.from_json(payload)
            self.failures.append(record)
            if not record.retried:
                self.outstanding.pop(record.spec_hash, None)
                landed = True
        return landed


class LeaseExecutor(Executor):
    """The one ``run`` of every executor that schedules through a broker.

    ``run`` dedups and consults the cache, submits the rest, lets
    :meth:`_collect` drive agents until the broker has settled every
    spec, writes results back, and raises :class:`ExecutionFailed` if
    any spec failed permanently.  Specs a broker could not settle (it
    became unreachable) finish on a local :class:`ParallelExecutor`,
    and the outcome is flagged ``degraded``.

    Subclasses provide ``_connect()`` (make sure ``_transport``, and any
    in-parent broker, exist), ``_collect(batch)`` (drive agents until
    the batch settles or cannot) and ``_recruit()`` (a new in-process
    agent for :meth:`_run_agents`).
    """

    worker_deaths = 0
    timeouts = 0
    degraded = False

    def __init__(
        self,
        jobs: int,
        retry: RetryPolicy | None,
        timeout: float | None,
        faults,
    ) -> None:
        self.jobs = jobs
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        #: A chaos run's :class:`~repro.resilience.FaultInjector`, handed
        #: to the in-parent broker, which stamps each lease it grants.
        self.faults = faults
        self._broker = None  # an in-parent broker, when there is one
        self._transport = None  # how ``run`` reaches the broker
        self._agents: list = []  # in-process WorkerAgents
        self._fallback: ParallelExecutor | None = None

    # -- hooks ----------------------------------------------------------

    def _leased(self, pending: Sequence[RunSpec]) -> bool:
        """Whether this batch goes through the broker at all."""
        return bool(pending)

    def _dispatch_telemetry(self, counters: dict, leftovers: list) -> dict:
        return {}

    # -- lifecycle ------------------------------------------------------

    def close(self, *, force: bool = False) -> None:
        """Drop the broker and agents (idempotent; a later run rebuilds)."""
        self._broker = None
        self._agents = []
        if self._fallback is not None:
            self._fallback.close(force=force)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)

    def _local_broker(self, **options) -> None:
        """An in-parent broker on a manual clock, reached in-process."""
        from repro.dispatch.broker import Broker, ManualClock
        from repro.dispatch.transport import LocalTransport

        self._broker = Broker(
            lease_seconds=LEASE_SECONDS,
            retry=self.retry,
            clock=ManualClock(),
            faults=self.faults,
            **options,
        )
        self._transport = LocalTransport(self._broker)

    # -- execution ------------------------------------------------------

    def run(self, specs, *, cache=None, progress=None):
        batch = self._batch(specs, cache, progress)
        if not self._leased(batch.pending):
            batch.simulate_in_process()
            return self._finish(batch)
        deaths, timeouts = self.worker_deaths, self.timeouts
        self._connect()
        before = self._counters()
        try:
            self._submit(batch.pending)
            self._collect(batch)
        except TransportError:
            pass  # the broker became unreachable: the rest degrades
        except KeyboardInterrupt:
            # Kill outstanding work rather than wait on running agents,
            # then surface the interrupt untouched.
            self.close(force=True)
            raise
        finally:
            if self._broker is not None:
                self._broker.reset()  # collected; only counters persist
        after = self._counters()
        counters = {
            key: value - before.get(key, 0)
            for key, value in after.items()
            if value != before.get(key, 0)
        }
        leftovers = list(batch.outstanding.values())
        if leftovers:
            self._run_fallback(leftovers, batch)
        return self._finish(
            batch,
            retries=counters.get("task_retries", 0),
            worker_deaths=self.worker_deaths - deaths,
            timeouts=self.timeouts - timeouts,
            degraded=self.degraded or bool(leftovers),
            dispatch=self._dispatch_telemetry(counters, leftovers),
        )

    def _submit(self, pending: Sequence[RunSpec]) -> None:
        from repro.obs.fleet.spans import batch_trace_id

        # Trace propagation is always on (it is just a string riding
        # the protocol); *recording* it is the opt-in part.
        trace = self._trace_context or batch_trace_id(
            [spec.content_hash for spec in pending]
        )
        self._transport.call(
            "submit",
            {
                "specs": [
                    {"spec": spec.to_json(), "label": spec.label(), "trace": trace}
                    for spec in pending
                ]
            },
        )

    def _counters(self) -> dict[str, int]:
        """Broker counters now — deltas keep per-batch telemetry honest."""
        if self._broker is not None:
            return dict(self._broker.counters)
        try:
            return dict(self._transport.call("status", {}).get("counters", {}))
        except TransportError:
            return {}

    def _run_agents(self, batch: _Batch) -> None:
        """Step the in-process agents round-robin until the batch settles.

        Idle agents with work outstanding mean a lease is held by an
        agent that vanished or was cut off: advancing the manual clock
        past the lease expires it, and the broker requeues the task
        without charging an attempt.  When every agent has vanished, a
        replacement is recruited — the batch must not depend on any
        single agent surviving.
        """
        counters = self._broker.counters
        for _ in range(100 + 20 * len(batch.outstanding)):
            progressed = False
            for agent in [agent for agent in self._agents if not agent.vanished]:
                try:
                    progressed |= agent.step() in ("done", "error")
                except TransportError:
                    continue  # partitioned off; its lease recovers by expiry
            progressed |= batch.collect(self._transport)
            if not batch.outstanding:
                break
            if progressed:
                continue
            if all(agent.vanished for agent in self._agents):
                self._agents.append(self._recruit())
                key = "recruited_agents"
            else:
                self._broker.clock.advance(LEASE_SECONDS + 1.0)
                key = "lease_clock_advances"
            counters[key] = counters.get(key, 0) + 1

    def _run_fallback(self, leftovers: list[RunSpec], batch: _Batch) -> None:
        """Finish specs the broker could not settle on a local pool."""
        if self._fallback is None:
            self._fallback = ParallelExecutor(
                jobs=self.jobs, retry=self.retry, timeout=self.timeout
            )
        try:
            outcome = self._fallback.run(leftovers)
        except ExecutionFailed as error:
            outcome = error.outcome
        batch.failures.extend(outcome.failures)
        for spec, result in zip(leftovers, outcome.results):
            batch.absorb(spec, result)


class _Forked:
    """The parent's view of one forked agent."""

    __slots__ = ("process", "conn", "claim", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.claim: dict | None = None  # a claim held until work arrives
        self.task: dict | None = None  # the lease it is running
        self.deadline: float | None = None


def _agent_main(conn, worker_id: str) -> None:
    """A forked agent: claim, run and complete tasks until released."""
    from repro.dispatch.transport import PipeTransport
    from repro.dispatch.worker import WorkerAgent

    agent = WorkerAgent(PipeTransport(conn), worker_id=worker_id, forked=True)
    try:
        agent.run()
    except (EOFError, OSError, TransportError):
        pass  # released, the executor is gone, or a stamped partition


def _reap(processes: list) -> None:
    """Finalizer: make sure no agent outlives its executor."""
    for process in processes:
        try:
            if process.is_alive():
                process.kill()
        except (OSError, ValueError):
            pass


class ParallelExecutor(LeaseExecutor):
    """An in-parent broker plus ``jobs`` forked agents.

    ``jobs=None`` (the default) means ``os.cpu_count()`` agents.  They
    are forked on the first batch with more than one spec and reused
    across batches; an idle agent's claim is held until the next
    submit, so agents never poll.  Knobs, all deterministic:

    ``retry``
        The broker's :class:`~repro.resilience.RetryPolicy`: how many
        attempts a crashing, hanging or erroring spec gets.
    ``timeout``
        Per-spec wall-clock budget in seconds; an agent running past
        it is killed and its lease charged as a ``timeout``.
    ``faults``
        A chaos run's :class:`~repro.resilience.FaultInjector`; the
        broker stamps each granted lease with the faults its agent
        acts out.

    An agent that dies (its pipe reads EOF) is replaced, and its lease
    is completed as a ``crash`` error, so the retry budget charges the
    spec.  An agent that a stamped vanish or partition takes off its
    lease exits, so it reads as a crash too.  After ``max(3, 2 *
    jobs)`` agent deaths, not counting watchdog kills, the executor
    degrades until :meth:`close`: the batch finishes on one in-process
    agent, where a stamped kill or hang reads as a vanish.

    With ``jobs=1`` (or a single pending spec and no timeout or
    faults) the batch runs plainly in-process and nothing is forked,
    so ``--jobs 1`` stays an honest serial baseline.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        faults=None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1 (or None for cpu_count)")
        super().__init__(jobs or os.cpu_count() or 1, retry, timeout, faults)
        self._forked: list[_Forked] = []
        self._spawned = 0
        self._processes: list = []  # shared with the finalizer
        self._finalizer = weakref.finalize(self, _reap, self._processes)

    def describe(self) -> str:
        return f"parallel[jobs={self.jobs}]"

    def _leased(self, pending):
        if self.jobs <= 1 or not pending:
            return False
        # A single pending spec still goes through the agents when a
        # timeout or a fault injector must see every task.
        supervised = self.timeout is not None or self.faults is not None
        return len(pending) > 1 or supervised

    def _connect(self) -> None:
        if self._broker is None:
            self._local_broker()

    def _recruit(self):
        from repro.dispatch.worker import WorkerAgent

        return WorkerAgent(self._transport, worker_id="in-process")

    def close(self, *, force: bool = False) -> None:
        """Stop the agents and zero the death counts (idempotent; a later
        run forks new ones)."""
        for agent in list(self._forked):
            if not force:
                self._reply(agent, None)  # release: its held claim ends
            self._retire(agent, death=False, grace=0.0 if force else 2.0)
        self.worker_deaths = self.timeouts = 0
        self.degraded = False
        super().close(force=force)

    # -- the forked agents ----------------------------------------------

    def _collect(self, batch: _Batch) -> None:
        while batch.outstanding and not self.degraded:
            while len(self._forked) < self.jobs:
                self._fork()
            self._grant()
            if self._serve():
                batch.collect(self._transport)
        if batch.outstanding:
            # Degraded: the killed agents' leases expire on the manual
            # clock and one in-process agent finishes the batch.
            for agent in list(self._forked):
                self._retire(agent, death=False)
            if not self._agents:
                self._agents.append(self._recruit())
            self._run_agents(batch)

    def _fork(self) -> None:
        # An agent inherits the parent's imports: import what it runs
        # here, once, rather than in every agent.
        for module in (*EXECUTE_SPEC_IMPORTS, "repro.dispatch.worker"):
            import_module(module)
        context = get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_agent_main,
            args=(child_conn, f"agent-{self._spawned}"),
            daemon=True,
        )
        process.start()
        # Closed in the parent right after the fork, so the agent's
        # death reads as EOF on our end of the pipe.
        child_conn.close()
        self._spawned += 1
        self._forked.append(_Forked(process, parent_conn))
        self._processes.append(process)

    def _grant(self) -> None:
        """Answer held claims while the broker has queued tasks."""
        for agent in list(self._forked):
            if agent.claim is None:
                continue
            reply = self._broker.handle("claim", agent.claim)
            if reply["task"] is None:
                return
            agent.claim = None
            agent.task = reply["task"]
            if self.timeout is not None:
                agent.deadline = time.monotonic() + self.timeout
            self._reply(agent, reply)

    def _serve(self) -> bool:
        """Answer agent calls once; True if a task settled or was charged."""
        deadlines = [a.deadline for a in self._forked if a.deadline is not None]
        budget = None
        if deadlines:
            budget = max(0.0, min(deadlines) - time.monotonic())
        settled = False
        for conn in wait([agent.conn for agent in self._forked], budget):
            if self.degraded:
                return settled  # the rest is reclaimed, not charged
            agent = next(a for a in self._forked if a.conn is conn)
            try:
                op, payload = conn.recv()
            except (EOFError, OSError):
                settled |= self._lose(
                    agent, "crash", f"agent pid {agent.process.pid} died"
                )
                continue
            if op == "claim":
                agent.claim = payload
                continue
            try:
                reply = self._broker.handle(op, payload)
            except DispatchError:
                if op != "complete":
                    raise
                # A redelivered completion that lands after its batch
                # was collected (and the broker reset): nothing to do.
                reply = {"ok": True, "duplicate": True}
            if op == "complete":
                agent.task = agent.deadline = None
                settled = True
            self._reply(agent, reply)
        now = time.monotonic()
        for agent in list(self._forked):
            if self.degraded or agent.deadline is None or now < agent.deadline:
                continue
            self.timeouts += 1
            settled |= self._lose(
                agent,
                "timeout",
                f"exceeded the {self.timeout:g}s wall-clock budget; agent killed",
            )
        return settled

    def _reply(self, agent: _Forked, reply: dict) -> None:
        try:
            agent.conn.send(reply)
        except OSError:
            pass  # the agent died; its EOF is read on the next wait

    def _lose(self, agent: _Forked, kind: str, detail: str) -> bool:
        """Replace a dead or overdue agent; charge its lease, if any."""
        task = agent.task
        self._retire(agent)
        if task is None:
            return False
        self._broker.handle(
            "complete",
            {
                "spec_hash": task["spec_hash"],
                "lease": task["lease"],
                "status": "error",
                "kind": kind,
                "detail": f"task {task['serial']}: {detail}",
            },
        )
        return True

    def _retire(
        self, agent: _Forked, *, death: bool = True, grace: float = 0.0
    ) -> None:
        self._forked.remove(agent)
        agent.process.join(timeout=grace)  # a released agent exits itself
        agent.process.kill()
        agent.process.join(timeout=2.0)
        agent.conn.close()
        self._processes.remove(agent.process)
        if death:
            self.worker_deaths += 1
            # A watchdog kill is the deadline working, not a sick host:
            # degrading would finish the batch where no deadline holds.
            if self.worker_deaths - self.timeouts >= max(3, 2 * self.jobs):
                self.degraded = True
