"""Fault-tolerant distributed campaign execution.

``repro.dispatch`` fans a batch of content-hashed specs out over
worker agents through a lease-granting broker:

* :class:`Broker` — the state machine: submit → claim (lease) →
  heartbeat → complete, with deterministic lease expiry, requeueing of
  abandoned work, digest-verified and idempotent result ingestion;
* :class:`WorkerAgent` — the claim/execute/complete loop, built on the
  same :func:`~repro.runtime.spec.execute_spec` + cache machinery as
  every other executor;
* :class:`LocalTransport` / :class:`HttpTransport` — in-process
  (deterministic) and localhost-HTTP (stdlib-only, retried under a
  deterministic :class:`~repro.resilience.RetryPolicy`) broker access;
* :class:`BrokerServer` — the ``http.server`` face for real multi-
  process runs (``repro dispatch serve`` / ``repro dispatch work``);
* :class:`DispatchExecutor` — all of the above behind the standard
  Executor interface, selected with ``--dispatch URL|local`` on batch
  and campaign verbs, degrading to a local parallel executor when the
  broker is unreachable.

Because results are sha256-sealed and ingestion is keyed on spec
content hashes, a distributed run converges to byte-identical stage
digests no matter how the network misbehaves — which chaos runs assert
with lost, duplicated and delayed calls and partitioned agents riding
the broker's leases.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".broker": (
            "BROKER_OPS",
            "Broker",
            "ManualClock",
            "MonotonicClock",
            "spec_hash_of",
        ),
        ".executor": ("DispatchExecutor",),
        ".httpd": ("BrokerServer",),
        ".transport": ("HttpTransport", "LocalTransport", "Transport"),
        ".worker": ("WorkerAgent",),
    },
)
