"""Transports: how dispatch participants reach the broker.

Every transport presents one method — ``call(op, payload) -> response``
— mirroring :meth:`~repro.dispatch.broker.Broker.handle`, so the
worker agent and the executor are transport-agnostic.

:class:`LocalTransport` calls a :class:`Broker` in-process: the
deterministic, test-friendly face of the protocol.

:class:`HttpTransport` speaks JSON-over-POST to a
:class:`~repro.dispatch.httpd.BrokerServer` using only the stdlib
(``urllib``).  Protocol errors (HTTP 4xx — the broker rejected the
call) raise :class:`~repro.errors.DispatchError` immediately; network
errors (timeouts, refused connections, 5xx) are retried with a
deterministic backoff before giving up.

:class:`PipeTransport` is a forked agent's end of the pipe to the
parallel executor, which answers each call from its in-parent broker.

No transport injects faults: chaos faults ride the lease the broker
grants, and the agent acts them out over whichever transport it has.
"""

from __future__ import annotations

import json
import time

from repro.errors import DispatchError, TransportError
from repro.resilience.policy import RetryPolicy

#: HTTP transport retry default: a handful of attempts with a short
#: real backoff for socket races.
HTTP_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.05, backoff_max=0.5)


class Transport:
    """Interface: one broker round-trip per :meth:`call`."""

    def call(self, op: str, payload: dict) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class LocalTransport(Transport):
    """In-process broker calls."""

    def __init__(self, broker) -> None:
        self.broker = broker

    def describe(self) -> str:
        return "local"

    def call(self, op: str, payload: dict) -> dict:
        return self.broker.handle(op, payload)


class PipeTransport(Transport):
    """A forked agent's calls to the executor's broker, over a pipe.

    The executor holds a claim against an empty queue until work is
    submitted, so an idle agent blocks here instead of polling.  A
    ``None`` reply means the executor has released the agent.
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
