"""Packet-event tracing and injection capture, as probe-bus subscribers.

A :class:`TraceRecorder` attached to a simulator (either engine)
captures packet-level events — creation, injection, hop wins,
preemptions, replays, deliveries — into a bounded ring buffer.  Traces
make scheduling bugs visible ("who preempted whom, where, and why")
without slowing untraced runs: like :class:`InjectionCapture`, the
recorder joins the simulator's probe bus, which costs one guard per
engine hook site while no observer has joined it.

Usage::

    sim = ColumnSimulator(...)
    trace = TraceRecorder(capacity=5000)
    trace.attach(sim)
    sim.run(2000)
    print(trace.format_tail(20))
    victims = trace.events_of_kind(TraceKind.PREEMPT)
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError, TraceOverflowError
from repro.obs.probes import ProbeBus


class TraceKind(enum.Enum):
    """Event categories recorded by the tracer."""

    CREATE = "create"
    INJECT = "inject"
    WIN = "win"
    PREEMPT = "preempt"
    NACK = "nack"
    DELIVER = "deliver"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    kind: TraceKind
    pid: int
    flow_id: int
    where: str
    detail: str = ""

    def __str__(self) -> str:
        text = (
            f"[{self.cycle:>7}] {self.kind.value:8s} pkt={self.pid:<6} "
            f"flow={self.flow_id:<3} @ {self.where}"
        )
        if self.detail:
            text += f"  ({self.detail})"
        return text


#: Overflow policies a :class:`TraceRecorder` supports at ``capacity``.
OVERFLOW_DROP_OLDEST = "drop_oldest"
OVERFLOW_RAISE = "raise"
_OVERFLOW_MODES = (OVERFLOW_DROP_OLDEST, OVERFLOW_RAISE)


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent`.

    Overflow behaviour at ``capacity`` is explicit:

    * ``overflow="drop_oldest"`` (default) — the buffer is a ring: the
      oldest retained event is evicted, ``dropped`` counts evictions,
      and :meth:`count` totals still include evicted events.  Long runs
      stay memory-flat; the tail is always the freshest history.
    * ``overflow="raise"`` — the recorder raises
      :class:`~repro.errors.TraceOverflowError` on the first event past
      capacity, aborting the run.  Use it when losing *any* event would
      invalidate the analysis (e.g. counting preemptions via a trace).
    """

    def __init__(
        self, capacity: int = 10_000, *, overflow: str = OVERFLOW_DROP_OLDEST
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("trace capacity must be positive")
        if overflow not in _OVERFLOW_MODES:
            raise ConfigurationError(
                f"unknown overflow mode {overflow!r}; "
                f"expected one of {_OVERFLOW_MODES}"
            )
        self.capacity = capacity
        self.overflow = overflow
        maxlen = capacity if overflow == OVERFLOW_DROP_OLDEST else None
        self.events: deque[TraceEvent] = deque(maxlen=maxlen)
        self.dropped = 0
        self._counts: dict[TraceKind, int] = {kind: 0 for kind in TraceKind}
        self._simulator = None
        self._flow_node: list[int] = []

    # -- attachment ----------------------------------------------------

    def attach(self, simulator) -> None:
        """Join ``simulator``'s probe bus (idempotent; one simulator)."""
        if self._simulator not in (None, simulator):
            raise ConfigurationError("a TraceRecorder follows one simulator")
        bus = ProbeBus.of(simulator)
        self._simulator = simulator
        # NACK lines name the packet's source, which is its flow's node.
        self._flow_node = [spec.node for spec in simulator.flows]
        bus.join(self)

    # -- probe handlers ------------------------------------------------

    def on_admit(self, cycle, pid, flow, src, dst, size, protected):
        self.record(cycle, TraceKind.CREATE, pid, flow, f"node{src}",
                    f"dst={dst} size={size}" + (" protected" if protected else ""))

    def on_inject(self, cycle, pid, flow, station_label, attempt):
        self.record(cycle, TraceKind.INJECT, pid, flow, station_label,
                    f"attempt={attempt}")

    def on_hop(self, cycle, pid, flow, port_index, port_label, size, is_ejection,
               hop_index):
        self.record(cycle, TraceKind.WIN, pid, flow, port_label, f"hop={hop_index}")

    def on_deliver(self, cycle, pid, flow, dst, size, latency):
        self.record(cycle, TraceKind.DELIVER, pid, flow, f"node{dst}",
                    f"latency={latency:.0f}")

    def on_preempt(self, cycle, pid, flow, station_label, tiles_done):
        self.record(cycle, TraceKind.PREEMPT, pid, flow, station_label,
                    f"wasted_tiles={tiles_done}")

    def on_nack(self, cycle, pid, flow, attempt):
        self.record(cycle, TraceKind.NACK, pid, flow,
                    f"node{self._flow_node[flow]}", f"attempt={attempt}")

    # -- recording -----------------------------------------------------

    def record(
        self,
        cycle: int,
        kind: TraceKind,
        pid: int,
        flow_id: int,
        where: str,
        detail: str = "",
    ) -> None:
        """Append one event, applying the configured overflow policy."""
        if len(self.events) == self.capacity:
            if self.overflow == OVERFLOW_RAISE:
                raise TraceOverflowError(
                    f"trace capacity {self.capacity} exhausted at cycle "
                    f"{cycle} (overflow='raise')"
                )
            self.dropped += 1
        self.events.append(
            TraceEvent(cycle=cycle, kind=kind, pid=pid, flow_id=flow_id,
                       where=where, detail=detail)
        )
        self._counts[kind] += 1

    # -- queries ---------------------------------------------------------

    def events_of_kind(self, kind: TraceKind) -> list[TraceEvent]:
        """All retained events of one kind, oldest first."""
        return [event for event in self.events if event.kind is kind]

    def events_of_packet(self, pid: int) -> list[TraceEvent]:
        """The retained life story of one packet."""
        return [event for event in self.events if event.pid == pid]

    def count(self, kind: TraceKind) -> int:
        """Total events of a kind seen (including evicted ones)."""
        return self._counts[kind]

    def format_tail(self, n: int = 25) -> str:
        """Printable view of the most recent ``n`` events."""
        tail = list(self.events)[-n:]
        lines = [str(event) for event in tail]
        if self.dropped:
            lines.insert(0, f"... ({self.dropped} older events dropped)")
        return "\n".join(lines) if lines else "(no events)"


class InjectionCapture:
    """Structured record of every packet creation, in creation order.

    The capture API behind scenario record-and-replay
    (:mod:`repro.scenarios.tracefmt`): every ``admit`` probe event —
    open-loop emissions, closed-loop requests and destination-generated
    replies alike, in exactly the order packet ids are assigned —
    appends ``(cycle, flow_id, dst, size)``.  Either engine can be
    captured.  Unlike :class:`TraceRecorder` it is unbounded (a
    truncated capture cannot be replayed) and purely observational:
    attaching it perturbs nothing about the run.
    """

    def __init__(self) -> None:
        self.emissions: list[tuple[int, int, int, int]] = []

    def attach(self, simulator) -> None:
        """Join ``simulator``'s probe bus (idempotent per sim)."""
        ProbeBus.of(simulator).join(self)

    def on_admit(self, cycle, pid, flow, src, dst, size, protected) -> None:
        self.emissions.append((cycle, flow, dst, size))

    def __len__(self) -> int:
        return len(self.emissions)
