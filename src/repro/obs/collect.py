"""Collectors over the probe bus: windowed series, lifecycles, activity.

Each collector's ``on_<event>`` methods are its probe handlers, which
:meth:`~repro.obs.probes.ProbeBus.join` subscribes.

:class:`WindowedMetrics` folds packet-level probe events into
fixed-width cycle windows — per-flow throughput, per-port busy flits,
fixed-bucket latency histograms, preemption/NACK counts and a
time-weighted fabric-occupancy gauge — and serialises them via
:mod:`repro.obs.metricsfmt`.  Every accumulator is commutative within a
window, so the optimised and golden engines (which may interleave
same-cycle events differently during a cycle) produce **identical**
rows; ``tests/test_obs_metrics.py`` pins this.

:class:`LifecycleCollector` keeps one record per packet (creation,
every injection attempt, every hop, preemptions, NACKs, delivery) for
the Chrome-trace exporter, plus the frame deferrals it does not draw
(``releases``: ``(cycle, ready_at, released_at)``).
:class:`EngineActivityCollector` counts the optimised-engine internals
(arbitration blocks, injector arm/sleep) and keeps the cycle-skip and
frame timelines.

:class:`ObsSession` bundles the standard set: construct, ``attach`` to
a simulator, run, ``finalize``, then ``write`` the artifact set —
``<stem>metrics.jsonl``, optional ``<stem>trace.json`` (Chrome trace
events) and ``<stem>run.json`` (the obs run manifest tying the files to
the originating spec and stats digest).
"""

from __future__ import annotations

import os
from bisect import bisect_left

from repro.errors import ConfigurationError
from repro.obs.metricsfmt import (
    DEFAULT_LATENCY_BUCKETS,
    write_metrics,
    write_run,
)
from repro.obs.probes import ProbeBus

#: Default window width in cycles (half a default 2000-cycle frame).
DEFAULT_WINDOW = 1000


class WindowedMetrics:
    """Windowed time-series accumulator (see module docstring).

    ``_advance`` is called from every handler: it closes any windows
    that ended before the event's cycle (idle gaps produce explicit
    empty rows) and accrues the occupancy integral up to the event.
    """

    def __init__(
        self,
        *,
        window: int = DEFAULT_WINDOW,
        n_flows: int,
        n_ports: int,
        latency_buckets=DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if window <= 0:
            raise ConfigurationError("metrics window must be positive")
        self.window = window
        self.n_flows = n_flows
        self.n_ports = n_ports
        self.buckets = tuple(latency_buckets)
        self.rows: list[dict] = []
        self._start = 0
        self._inflight = 0
        self._occ_cycle = 0
        self._occ_acc = 0
        self._finalized = False
        self._reset()

    def _reset(self) -> None:
        self._created = [0] * self.n_flows
        self._packets = [0] * self.n_flows
        self._flits = [0] * self.n_flows
        self._injected = 0
        self._hops = 0
        self._port_busy: dict[int, int] = {}
        self._lat_hist = [0] * (len(self.buckets) + 1)
        self._lat_sum = 0.0
        self._lat_n = 0
        self._preempts = 0
        self._nacks = 0

    # -- window bookkeeping ------------------------------------------

    def _advance(self, cycle: int) -> None:
        while cycle >= self._start + self.window:
            boundary = self._start + self.window
            self._occ_acc += self._inflight * (boundary - self._occ_cycle)
            self._occ_cycle = boundary
            self._emit_row(boundary)
            self._start = boundary
            self._reset()
        if cycle > self._occ_cycle:
            self._occ_acc += self._inflight * (cycle - self._occ_cycle)
            self._occ_cycle = cycle

    def _emit_row(self, end: int) -> None:
        span = end - self._start
        self.rows.append(
            {
                "w": len(self.rows),
                "start": self._start,
                "end": end,
                "created": self._created,
                "packets": self._packets,
                "flits": self._flits,
                "injected": self._injected,
                "hops": self._hops,
                "port_busy": {
                    str(port): busy
                    for port, busy in sorted(self._port_busy.items())
                },
                "lat_hist": self._lat_hist,
                "lat_sum": self._lat_sum,
                "lat_n": self._lat_n,
                "preempts": self._preempts,
                "nacks": self._nacks,
                "occupancy": self._occ_acc / span if span else 0.0,
            }
        )
        self._occ_acc = 0

    def finalize(self, end_cycle: int) -> None:
        """Close out all windows up to ``end_cycle`` (idempotent)."""
        if self._finalized:
            return
        self._advance(end_cycle)
        if end_cycle > self._start:
            self._occ_acc += self._inflight * (end_cycle - self._occ_cycle)
            self._occ_cycle = end_cycle
            self._emit_row(end_cycle)
        self._finalized = True

    # -- probe handlers ----------------------------------------------

    def on_admit(self, cycle, pid, flow, src, dst, size, protected):
        self._advance(cycle)
        self._created[flow] += 1

    def on_inject(self, cycle, pid, flow, station_label, attempt):
        self._advance(cycle)
        self._injected += 1
        self._inflight += 1

    def on_hop(
        self, cycle, pid, flow, port_index, port_label, size, is_ejection, hop_index
    ):
        self._advance(cycle)
        self._hops += 1
        self._port_busy[port_index] = self._port_busy.get(port_index, 0) + size

    def on_deliver(self, cycle, pid, flow, dst, size, latency):
        self._advance(cycle)
        self._packets[flow] += 1
        self._flits[flow] += size
        self._lat_hist[bisect_left(self.buckets, latency)] += 1
        self._lat_sum += latency
        self._lat_n += 1
        self._inflight -= 1

    def on_preempt(self, cycle, pid, flow, station_label, tiles_done):
        self._advance(cycle)
        self._preempts += 1
        self._inflight -= 1

    def on_nack(self, cycle, pid, flow, attempt):
        self._advance(cycle)
        self._nacks += 1


class LifecycleCollector:
    """Per-packet event records for timeline export.

    ``max_packets`` bounds memory on long runs: once the cap is hit, no
    *new* packets are tracked (events for already-tracked packets keep
    accruing) and ``truncated`` counts the untracked ones.
    """

    def __init__(self, *, max_packets: int | None = 65536) -> None:
        self.max_packets = max_packets
        self.records: dict[int, dict] = {}
        self.truncated = 0

    def on_admit(self, cycle, pid, flow, src, dst, size, protected):
        if self.max_packets is not None and len(self.records) >= self.max_packets:
            self.truncated += 1
            return
        self.records[pid] = {
            "pid": pid,
            "flow": flow,
            "src": src,
            "dst": dst,
            "size": size,
            "created": cycle,
            "injects": [],
            "releases": [],
            "hops": [],
            "preempts": [],
            "nacks": [],
            "delivered": None,
            "latency": None,
        }

    def on_inject(self, cycle, pid, flow, station_label, attempt):
        record = self.records.get(pid)
        if record is not None:
            record["injects"].append((cycle, station_label, attempt))

    def on_release(self, cycle, pid, flow, ready_at, released_at):
        record = self.records.get(pid)
        if record is not None:
            record["releases"].append((cycle, ready_at, released_at))

    def on_hop(
        self, cycle, pid, flow, port_index, port_label, size, is_ejection, hop_index
    ):
        record = self.records.get(pid)
        if record is not None:
            record["hops"].append((cycle, port_label))

    def on_deliver(self, cycle, pid, flow, dst, size, latency):
        record = self.records.get(pid)
        if record is not None:
            record["delivered"] = cycle
            record["latency"] = latency

    def on_preempt(self, cycle, pid, flow, station_label, tiles_done):
        record = self.records.get(pid)
        if record is not None:
            record["preempts"].append((cycle, station_label, tiles_done))

    def on_nack(self, cycle, pid, flow, attempt):
        record = self.records.get(pid)
        if record is not None:
            record["nacks"].append((cycle, attempt))


class EngineActivityCollector:
    """Optimised-engine internals: skip/frame timelines, hot counters."""

    def __init__(self) -> None:
        self.skips: list[tuple[int, int]] = []
        self.frames: list[int] = []
        self.arb_blocks = 0
        self.arms = 0
        self.sleeps = 0

    def on_skip(self, cycle, target):
        self.skips.append((cycle, target))

    def on_frame(self, cycle):
        self.frames.append(cycle)

    def on_arb_block(self, cycle, port_index, candidates):
        self.arb_blocks += 1

    def on_arm(self, cycle, flow):
        self.arms += 1

    def on_sleep(self, cycle, flow):
        self.sleeps += 1

    @property
    def skipped_cycles(self) -> int:
        """Total cycles elided by the activity tracker."""
        return sum(target - cycle - 1 for cycle, target in self.skips)

    def counters(self) -> dict[str, int]:
        return {
            "skips": len(self.skips),
            "skipped_cycles": self.skipped_cycles,
            "frames": len(self.frames),
            "arb_blocks": self.arb_blocks,
            "arms": self.arms,
            "sleeps": self.sleeps,
        }


class ObsSession:
    """One observed run: bus + standard collectors + artifact writing."""

    def __init__(
        self,
        *,
        window: int = DEFAULT_WINDOW,
        timeline: bool = False,
        latency_buckets=DEFAULT_LATENCY_BUCKETS,
        max_timeline_packets: int | None = 65536,
    ) -> None:
        self.window = window
        self.timeline = timeline
        self.latency_buckets = tuple(latency_buckets)
        self.max_timeline_packets = max_timeline_packets
        self.bus: ProbeBus | None = None
        self.metrics: WindowedMetrics | None = None
        self.lifecycle: LifecycleCollector | None = None
        self.activity = EngineActivityCollector()
        self.port_labels: list[str] = []
        self.flow_labels: list[str] = []
        self.simulator = None

    def attach(self, simulator) -> None:
        """Build collectors sized to ``simulator`` and join its bus."""
        if self.bus is not None:
            raise ConfigurationError("ObsSession is already attached")
        fabric = simulator.fabric
        self.port_labels = [port.label for port in fabric.ports]
        self.flow_labels = [
            f"flow{index}@n{spec.node}/{spec.port}"
            for index, spec in enumerate(simulator.flows)
        ]
        self.metrics = WindowedMetrics(
            window=self.window,
            n_flows=len(simulator.flows),
            n_ports=len(fabric.ports),
            latency_buckets=self.latency_buckets,
        )
        bus = ProbeBus.of(simulator)
        bus.join(self.metrics)
        bus.join(self.activity)
        if self.timeline:
            self.lifecycle = LifecycleCollector(
                max_packets=self.max_timeline_packets
            )
            bus.join(self.lifecycle)
        self.bus = bus
        self.simulator = simulator

    def finalize(self, end_cycle: int | None = None) -> None:
        """Close the metrics windows (defaults to the simulator clock)."""
        if self.metrics is None:
            raise ConfigurationError("ObsSession was never attached")
        if end_cycle is None:
            end_cycle = self.simulator.cycle
        self.metrics.finalize(end_cycle)

    def write(
        self,
        out_dir: str | os.PathLike,
        *,
        stem: str = "",
        spec_json: dict | None = None,
        label: str | None = None,
        snapshot_sha256: str | None = None,
        spec_hash: str | None = None,
    ) -> dict:
        """Write the artifact set into ``out_dir``; returns the manifest."""
        if self.metrics is None:
            raise ConfigurationError("ObsSession was never attached")
        os.makedirs(out_dir, exist_ok=True)
        metrics_name = f"{stem}metrics.jsonl"
        metrics_path = os.path.join(out_dir, metrics_name)
        meta = {}
        if label is not None:
            meta["label"] = label
        if spec_hash is not None:
            meta["spec_hash"] = spec_hash
        metrics_sha = write_metrics(
            metrics_path,
            window_cycles=self.window,
            n_flows=self.metrics.n_flows,
            ports=self.port_labels,
            latency_buckets=self.latency_buckets,
            rows=self.metrics.rows,
            meta=meta,
        )
        files = {metrics_name: metrics_sha}
        if self.lifecycle is not None:
            from repro.obs.chrometrace import build_trace_events, write_chrome_trace

            trace_name = f"{stem}trace.json"
            events = build_trace_events(
                self.lifecycle, self.activity, flow_labels=self.flow_labels
            )
            files[trace_name] = write_chrome_trace(
                os.path.join(out_dir, trace_name), events
            )
        manifest = {
            "label": label,
            "spec_hash": spec_hash,
            "spec": spec_json,
            "snapshot_sha256": snapshot_sha256,
            "window_cycles": self.window,
            "timeline": self.timeline,
            "engine": self.activity.counters(),
            "files": files,
        }
        run_name = f"{stem}run.json"
        write_run(os.path.join(out_dir, run_name), manifest)
        manifest["run_manifest"] = run_name
        return manifest
