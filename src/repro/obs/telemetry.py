"""Runtime telemetry: the executor's batch recorder and heartbeats.

:class:`TelemetryRecorder` records, per batch, what an executor
reports to it (see :meth:`~repro.runtime.executor.Executor.attach`) —
simulated vs cache-hit counts, wall time, the resilience counters, and
a per-spec completion log with offsets from batch start.  Recording
never touches results.  The CLI's ``--obs`` flag attaches one per
command and writes its :meth:`~TelemetryRecorder.snapshot` next to
reports; the campaign runner attaches one per stage and stores
:meth:`~TelemetryRecorder.shard_record` in the manifest after every
shard.

:func:`heartbeat_printer` builds the per-simulation progress callback
behind ``repro campaign run --progress``: campaign stages batch dozens
of specs per shard, and with parallel workers a stage can be silent for
minutes — the heartbeat prints one line per completed spec (rate-capped
by ``min_interval_seconds``) without touching the manifest or
artifacts.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable

TELEMETRY_FORMAT = "repro-obs-telemetry"
TELEMETRY_VERSION = 1

#: Per-batch counters summed into ``snapshot()["totals"]``.
_SUMMED = ("simulated", "cache_hits", "elapsed_seconds", "retries", "failures",
           "worker_deaths", "timeouts")


class TelemetryRecorder:
    """Records the specs and batches ``executor`` reports once attached.

    A batch that raises :class:`~repro.errors.ExecutionFailed` is
    reported too, from its partial outcome.  ``heartbeat(stage, done,
    total, label, cached)``, when given, is called once per completed
    spec with ``stage``.
    """

    def __init__(self, executor, *, heartbeat=None, stage: str = "") -> None:
        self.executor = executor
        self.heartbeat = heartbeat
        self.stage = stage
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the runner's per shard)."""
        self.batches: list[dict] = []
        self.completions: list[dict] = []
        #: Content hashes of every spec in a batch that succeeded.
        self.spec_hashes: list[str] = []
        self.spec_failures = 0
        #: Broker counters summed over batches; nested gauges (the
        #: ``fleet`` snapshot) are point-in-time, so the last one wins.
        self.dispatch: dict = {}

    def on_spec(self, done, total, spec, cached, at_seconds) -> None:
        self.completions.append(
            {
                "batch": len(self.batches),
                "label": spec.label(),
                "spec_hash": spec.content_hash[:12],
                "cached": cached,
                "at_seconds": round(at_seconds, 6),
            }
        )
        if self.heartbeat is not None:
            self.heartbeat(self.stage, done, total, spec.label(), cached)

    def on_batch(self, specs, outcome, failed=()) -> None:
        if failed:
            self.spec_failures += len(failed)
        else:
            self.spec_hashes.extend(spec.content_hash for spec in specs)
        self.batches.append(
            {
                "specs": len(specs),
                "unique": outcome.simulated + outcome.cache_hits,
                "simulated": outcome.simulated,
                "cache_hits": outcome.cache_hits,
                "elapsed_seconds": round(outcome.elapsed_seconds, 6),
                "retries": outcome.retries,
                "failures": len(outcome.failures),
                "worker_deaths": outcome.worker_deaths,
                "timeouts": outcome.timeouts,
                "degraded": outcome.degraded,
            }
        )
        for key, value in outcome.dispatch.items():
            if isinstance(value, dict):
                self.dispatch[key] = dict(value)
            else:
                self.dispatch[key] = self.dispatch.get(key, 0) + value

    def _totals(self) -> dict:
        totals = {
            "batches": len(self.batches),
            "specs": sum(batch["specs"] for batch in self.batches),
        }
        for key in _SUMMED:
            totals[key] = sum(batch[key] for batch in self.batches)
        totals["elapsed_seconds"] = round(totals["elapsed_seconds"], 6)
        return totals

    def snapshot(self) -> dict:
        """Aggregated counters plus the raw batch/completion logs."""
        return {
            "executor": self.executor.describe(),
            "jobs": self.executor.jobs,
            "batches": list(self.batches),
            "completions": list(self.completions),
            "totals": self._totals(),
        }

    def shard_record(self) -> dict:
        """The counters a campaign manifest keeps for one shard."""
        totals = self._totals()
        record = {"spec_hashes": list(self.spec_hashes)}
        for key in ("simulated", "cache_hits", "retries", "worker_deaths", "timeouts"):
            record[key] = totals[key]
        record["spec_failures"] = self.spec_failures
        record["degraded"] = any(batch["degraded"] for batch in self.batches)
        if self.dispatch:
            record["dispatch"] = dict(self.dispatch)
        return record


def write_runtime_telemetry(
    path: str | os.PathLike, snapshot: dict, *, meta: dict | None = None
) -> None:
    """Write one telemetry snapshot as versioned JSON."""
    document = {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "meta": dict(meta or {}),
        **snapshot,
    }
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def heartbeat_printer(
    emit: Callable[[str], None] = print, *, min_interval_seconds: float = 0.0
) -> Callable[[str, int, int, str, bool], None]:
    """Build a ``(stage, done, total, label, cached)`` heartbeat callback.

    The first heartbeat and the final spec of a batch always print even
    under rate capping, so the visible log starts immediately and ends
    on ``N/N`` — and the terminal heartbeat additionally flushes a
    per-stage wall-time summary (sim/cache split + elapsed), so a
    rate-capped stage never ends without its accounting line.
    """
    last_emit: list[float | None] = [None]
    stage_stats: dict[str, list] = {}  # stage -> [started, sim, cache]

    def heartbeat(stage: str, done: int, total: int, label: str, cached: bool):
        now = time.monotonic()
        stats = stage_stats.setdefault(stage, [now, 0, 0])
        stats[2 if cached else 1] += 1
        if (
            done < total
            and min_interval_seconds > 0
            and last_emit[0] is not None
            and now - last_emit[0] < min_interval_seconds
        ):
            return
        last_emit[0] = now
        source = "cache" if cached else "sim"
        emit(f"      [{stage}] {done}/{total} {source:>5}  {label}")
        if done >= total:
            started, sim, hits = stage_stats.pop(stage)
            emit(
                f"      [{stage}] done: {sim} sim + {hits} cache "
                f"in {now - started:.1f}s"
            )

    return heartbeat
