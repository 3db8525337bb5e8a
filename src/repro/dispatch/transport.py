"""Transports: how dispatch participants reach the broker.

Every transport presents one method — ``call(op, payload) -> response``
— mirroring :meth:`~repro.dispatch.broker.Broker.handle`, so the
worker agent and the executor are transport-agnostic.

:class:`LocalTransport` calls a :class:`Broker` in-process.  It is the
deterministic, test-friendly face of the protocol *and* the seam where
network chaos is injected: before every call it consults the fault
injector, and a ``drop_request``/``partition_worker`` fault makes the
call behave exactly like a lost datagram — retried under the
:class:`~repro.resilience.RetryPolicy`, then surfaced as
:class:`~repro.errors.TransportError` once the budget is gone.

:class:`HttpTransport` speaks JSON-over-POST to a
:class:`~repro.dispatch.httpd.BrokerServer` using only the stdlib
(``urllib``).  Protocol errors (HTTP 4xx — the broker rejected the
call) raise :class:`~repro.errors.DispatchError` immediately; network
errors (timeouts, refused connections, 5xx) are retried with the same
deterministic backoff before giving up.

:class:`PipeTransport` is a forked agent's end of the pipe to the
parallel executor, which answers each call from its in-parent broker.
"""

from __future__ import annotations

import json
import time

from repro.errors import DispatchError, TransportError
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import RetryPolicy

#: Transport retry default: a handful of quick attempts.  The local
#: transport zeroes the backoff (faults are counter-keyed, not timed);
#: the HTTP transport keeps a short real backoff for socket races.
LOCAL_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0)
HTTP_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.05, backoff_max=0.5)


class Transport:
    """Interface: one broker round-trip per :meth:`call`."""

    def call(self, op: str, payload: dict) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class LocalTransport(Transport):
    """In-process broker calls with counter-keyed fault injection."""

    def __init__(
        self,
        broker,
        *,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.broker = broker
        self.faults = faults
        self.retry = retry or LOCAL_RETRY

    def describe(self) -> str:
        return "local"

    def call(self, op: str, payload: dict) -> dict:
        attempt = 0
        while True:
            fault = (
                self.faults.fire_transport_fault(op)
                if self.faults is not None
                else None
            )
            if fault is None:
                return self.broker.handle(op, payload)
            if fault.kind == "delay_response":
                time.sleep(fault.seconds)
                return self.broker.handle(op, payload)
            if fault.kind == "duplicate_result":
                # The network delivered the completion twice: the first
                # ingestion is real, the replay must be absorbed as an
                # idempotent no-op by the broker.
                response = self.broker.handle(op, payload)
                self.broker.handle(op, payload)
                return response
            # drop_request / partition_worker: the call never arrives.
            if not self.retry.should_retry(attempt):
                raise TransportError(
                    f"broker call {op!r} lost after {attempt + 1} attempts "
                    f"(injected {fault.kind})"
                )
            delay = self.retry.delay(op, attempt)
            if delay > 0:
                time.sleep(delay)
            attempt += 1


class PipeTransport(Transport):
    """A forked agent's calls to the executor's broker, over a pipe.

    The executor holds a claim against an empty queue until work is
    submitted, so an idle agent blocks here instead of polling.  A
    ``None`` reply means the executor has released the agent.  There
    is no fault seam: network chaos stays on :class:`LocalTransport`.
    """

    def __init__(self, conn) -> None:
        self.conn = conn

    def describe(self) -> str:
        return "pipe"

    def call(self, op: str, payload: dict) -> dict:
        self.conn.send((op, payload))
        reply = self.conn.recv()
        if reply is None:
            raise EOFError("the executor released this agent")
        return reply


class HttpTransport(Transport):
    """JSON-over-POST to a localhost broker, stdlib only."""

    def __init__(
        self,
        url: str,
        *,
        retry: RetryPolicy | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.retry = retry or HTTP_RETRY
        self.timeout = timeout

    def describe(self) -> str:
        return self.url

    def call(self, op: str, payload: dict) -> dict:
        # Imported here: urllib pulls in http.client, which only the
        # HTTP transport needs.
        import urllib.error
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        attempt = 0
        while True:
            request = urllib.request.Request(
                f"{self.url}/{op}",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                detail = error.read().decode("utf-8", "replace")[:200]
                if 400 <= error.code < 500:
                    # The broker understood us and said no — retrying
                    # an invalid call cannot help.
                    raise DispatchError(
                        f"broker rejected {op!r} ({error.code}): {detail}"
                    ) from error
                last = f"HTTP {error.code}: {detail}"
            except (urllib.error.URLError, TimeoutError, ConnectionError) as error:
                last = str(error)
            if not self.retry.should_retry(attempt):
                raise TransportError(
                    f"broker call {op!r} to {self.url} failed after "
                    f"{attempt + 1} attempts: {last}"
                )
            time.sleep(self.retry.delay(op, attempt))
            attempt += 1
