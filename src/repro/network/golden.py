"""Frozen reference engine for golden-equivalence checking.

This is a verbatim behavioural copy of the pre-optimisation
:class:`~repro.network.engine.ColumnSimulator` (the naive engine that
visits every injector and every output port on every cycle).  It exists
for exactly two purposes:

* the golden-equivalence test suite asserts that the activity-tracked
  engine produces **identical** :class:`NetworkStats` and traces for the
  same seed across topologies, QoS policies and injection rates;
* ``benchmarks/bench_engine.py`` times it against the optimised engine
  to record the speedup in ``BENCH_engine.json``.

Do not add features here and do not "fix" it to match engine changes —
any intentional behaviour change to the real engine must update this
file in the same commit, with the equivalence suite re-run, so that
behavioural drift is always a deliberate, reviewed event.

One such deliberate extension: injection *processes*
(``FlowSpec.injection``, the scenarios subsystem) are supported with the
naive per-cycle formulation — the process's ``next_emission`` contract
is called with the identical ``(0, then now + 1)`` argument sequence the
optimised engine uses, so bursty workloads remain golden-comparable.
Closed-loop flows, scripted replays and weight schedules are *not*
modelled here; constructing this engine with them raises.

A second deliberate extension: the *packet-level* probe events of
:mod:`repro.obs.probes` (admit/inject/release/hop/deliver/preempt/nack/
frame) are emitted behind the same ``if self._probes is not None``
guard as the optimised engine, with identical arguments at the
equivalent state transitions, so probe-driven collectors — the trace
recorder and the injection capture among them — can be cross-checked
between engines.  The optimised engine's *internal* events (arb_block,
arm, sleep, skip) describe machinery this engine does not have and are
deliberately absent.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, SimulationError
from repro.network.config import SimulationConfig
from repro.network.fabric import FabricBuild, OutputPort, Station, VirtualChannel
from repro.network.metrics import NetworkStats
from repro.network.packet import FlowSpec, Packet, RouteRequest
from repro.qos.base import QosPolicy
from repro.util.rng import DeterministicRng

_EV_FREE = 0
_EV_DELIVER = 1
_EV_ACK = 2
_EV_NACK = 3


class _Injector:
    """Run-time state of one injector (one flow)."""

    __slots__ = (
        "flow_id",
        "spec",
        "station",
        "vc_index",
        "rng",
        "pending",
        "replay",
        "outstanding",
        "created",
        "emit_probability",
        "sizes",
        "size_weights",
        "replica_rr",
        "process",
        "next_emit",
    )

    def __init__(
        self,
        flow_id: int,
        spec: FlowSpec,
        station: Station,
        vc_index: int,
        rng: DeterministicRng,
    ) -> None:
        self.flow_id = flow_id
        self.spec = spec
        self.station = station
        self.vc_index = vc_index
        self.rng = rng
        self.pending: deque[Packet] = deque()
        self.replay: deque[Packet] = deque()
        self.outstanding = 0
        self.created = 0
        self.emit_probability = (
            spec.rate / spec.mean_packet_size if spec.rate > 0 else 0.0
        )
        self.sizes = [size for size, _ in spec.size_mix]
        self.size_weights = [prob for _, prob in spec.size_mix]
        self.replica_rr = 0
        self.process = spec.injection
        self.next_emit: int | None = None

    def exhausted(self) -> bool:
        """True once the injector will never produce more work."""
        limit = self.spec.packet_limit
        done_generating = limit is not None and self.created >= limit
        return done_generating and not self.pending and not self.replay

    def idle(self) -> bool:
        """True when nothing is queued or in flight for this injector."""
        return self.exhausted() and self.outstanding == 0


class GoldenColumnSimulator:
    """Reference simulator — see the module docstring.

    Parameters
    ----------
    fabric:
        Compiled topology (:class:`~repro.network.fabric.FabricBuild`).
    flows:
        Injector specifications; flow ids follow list order.
    policy:
        QoS policy (PVC, per-flow baseline, or no-QoS).
    config:
        Frame length, windows, reserved-VC switches, seed.
    """

    def __init__(
        self,
        fabric: FabricBuild,
        flows: list[FlowSpec],
        policy: QosPolicy,
        config: SimulationConfig | None = None,
    ) -> None:
        if not flows:
            raise ConfigurationError("a simulation needs at least one flow")
        self.fabric = fabric
        self.flows = list(flows)
        self.policy = policy
        self.config = config or SimulationConfig()
        self.cycle = 0
        self.stats = NetworkStats(len(flows))
        self._timeline: dict[int, list[tuple]] = {}
        self._next_pid = 0
        #: Optional ProbeBus (packet-level events only); None = off.
        self._probes = None
        self._root_rng = DeterministicRng(self.config.seed)

        n_nodes = 1 + max(station.node for station in fabric.stations)
        self.policy.bind(n_nodes, self.flows, self.config)

        caps = self.policy.capabilities
        self._caps = caps
        self._release = (
            self.policy.injection_release if caps.throttles_injection else None
        )
        if caps.overflow_vcs:
            for station in fabric.stations:
                station.allow_overflow = True

        self._injectors: list[_Injector] = []
        used_slots: set[tuple[int, int]] = set()
        for flow_id, spec in enumerate(self.flows):
            key = (spec.node, spec.port)
            if key not in fabric.injection_station:
                raise ConfigurationError(f"fabric has no injector slot for {key}")
            station = fabric.stations[fabric.injection_station[key]]
            vc_index = fabric.injection_vc[key]
            slot = (station.index, vc_index)
            if slot in used_slots:
                raise ConfigurationError(f"two flows mapped to injector {key}")
            used_slots.add(slot)
            if (
                spec.closed_loop is not None
                or spec.reply_sink
                or spec.emissions is not None
                or spec.weight_schedule
            ):
                raise ConfigurationError(
                    "the golden engine does not model closed-loop, "
                    "scripted-replay or weight-scheduled flows"
                )
            injector = _Injector(
                flow_id, spec, station, vc_index, self._root_rng.spawn(flow_id)
            )
            if injector.process is not None:
                if injector.process.weight_changes():
                    raise ConfigurationError(
                        "the golden engine does not model weight schedules"
                    )
                injector.process.reset()
                limit = spec.packet_limit
                if limit is None or limit > 0:
                    injector.next_emit = injector.process.next_emission(
                        0, injector.rng
                    )
            self._injectors.append(injector)

    # ------------------------------------------------------------------
    # public API

    def run(self, cycles: int, *, warmup: int = 0) -> NetworkStats:
        """Advance the simulation; measure after ``warmup`` cycles."""
        if warmup:
            self.stats.set_window(self.cycle + warmup)
        end = self.cycle + cycles
        while self.cycle < end:
            self._step()
        return self.stats

    def run_window(self, warmup: int, window: int) -> NetworkStats:
        """Warm up, then measure exactly ``window`` cycles (Table 2)."""
        self.stats.set_window(self.cycle + warmup, self.cycle + warmup + window)
        end = self.cycle + warmup + window
        while self.cycle < end:
            self._step()
        return self.stats

    def run_until_drained(self, max_cycles: int) -> int:
        """Run until every finite injector is idle; return the cycle.

        Used by Figure 6's slowdown measurement: the workload is a fixed
        packet budget per source and the metric is completion time.
        """
        deadline = self.cycle + max_cycles
        while self.cycle < deadline:
            if all(injector.idle() for injector in self._injectors):
                return self.cycle
            self._step()
        raise SimulationError(
            f"workload did not drain within {max_cycles} cycles "
            f"(outstanding={[i.outstanding for i in self._injectors]})"
        )

    # ------------------------------------------------------------------
    # cycle phases

    def _step(self) -> None:
        now = self.cycle
        if now > 0 and now % self.config.frame_cycles == 0:
            self.policy.on_frame(now)
            if self._probes is not None:
                self._probes.frame(now)
            # A frame flush clears every bandwidth counter, so priority
            # stamps carried by in-flight packets (used at stations with
            # no flow state, e.g. DPS intermediate hops) must be cleared
            # too — otherwise pre-flush stamps look spuriously worse
            # than post-flush traffic and trigger preemption storms.
            for station in self.fabric.stations:
                for vc in station.vcs:
                    if vc.packet is not None:
                        vc.packet.carried_priority = 0.0
        events = self._timeline.pop(now, None)
        if events:
            self._process_events(events, now)
        self._inject(now)
        self._arbitrate(now)
        self.cycle = now + 1

    def _schedule(self, when: int, event: tuple) -> None:
        bucket = self._timeline.get(when)
        if bucket is None:
            self._timeline[when] = [event]
        else:
            bucket.append(event)

    def _process_events(self, events: list[tuple], now: int) -> None:
        for event in events:
            kind = event[0]
            if kind == _EV_FREE:
                _, vc, pid = event
                if vc.packet is not None and vc.packet.pid == pid and vc.departing:
                    vc.clear()
            elif kind == _EV_DELIVER:
                _, packet, tail_cycle = event
                latency = tail_cycle - packet.created_at
                self.stats.record_delivery(
                    packet.flow_id, packet.size, latency, tail_cycle
                )
                if self._probes is not None:
                    self._probes.deliver(
                        now, packet.pid, packet.flow_id, packet.dst,
                        packet.size, latency,
                    )
            elif kind == _EV_ACK:
                _, flow_id = event
                self._injectors[flow_id].outstanding -= 1
            elif kind == _EV_NACK:
                _, packet = event
                packet.reset_for_replay()
                self._injectors[packet.flow_id].replay.append(packet)
                if self._probes is not None:
                    self._probes.nack(
                        now, packet.pid, packet.flow_id, packet.attempt
                    )

    # ------------------------------------------------------------------
    # injection

    def _inject(self, now: int) -> None:
        for injector in self._injectors:
            spec = injector.spec
            limit = spec.packet_limit
            if injector.process is not None:
                if injector.next_emit == now and (
                    limit is None or injector.created < limit
                ):
                    self._create_packet(injector, now)
                    if limit is None or injector.created < limit:
                        injector.next_emit = injector.process.next_emission(
                            now + 1, injector.rng
                        )
                    else:
                        injector.next_emit = None
            elif injector.emit_probability > 0 and (
                limit is None or injector.created < limit
            ):
                if injector.rng.bernoulli(injector.emit_probability):
                    self._create_packet(injector, now)
            for slot in (injector.vc_index, injector.vc_index + 1):
                queue = injector.replay or injector.pending
                if not queue:
                    break
                vc = injector.station.vcs[slot]
                if vc.packet is not None:
                    continue
                packet = queue[0]
                is_new = packet.attempt == 0
                if is_new and injector.outstanding >= self.config.window_packets:
                    break
                queue.popleft()
                if is_new:
                    injector.outstanding += 1
                    self.stats.injected_packets += 1
                self._build_route(injector, packet)
                self._place(vc, packet, now + injector.station.va_wait)
                if self._probes is not None:
                    self._probes.inject(
                        now, packet.pid, packet.flow_id,
                        injector.station.label, packet.attempt,
                    )

    def _create_packet(self, injector: _Injector, now: int) -> None:
        spec = injector.spec
        process = injector.process
        drawn = (
            process.draw_packet(spec, now, injector.rng)
            if process is not None
            else None
        )
        if drawn is not None:
            dst, size = drawn
        else:
            size = injector.sizes[injector.rng.choice_index(injector.size_weights)]
            dst = spec.pattern(spec.node, injector.rng) if spec.pattern else spec.node
        packet = Packet(self._next_pid, injector.flow_id, spec.node, dst, size, now)
        self._next_pid += 1
        injector.created += 1
        self.stats.created_packets += 1
        self.stats.created_flits += size
        packet.protected = self.policy.on_packet_created(injector.flow_id, size, now)
        injector.pending.append(packet)
        if self._probes is not None:
            self._probes.admit(
                now, packet.pid, packet.flow_id, packet.src, packet.dst, size,
                packet.protected,
            )

    def _build_route(self, injector: _Injector, packet: Packet) -> None:
        request = RouteRequest(
            src_node=packet.src,
            dst_node=packet.dst,
            injection_station=injector.station.index,
            replica_hint=injector.replica_rr,
        )
        injector.replica_rr += 1
        packet.stations, packet.segments = self.fabric.route_builder(request)

    def _place(self, vc: VirtualChannel, packet: Packet, ready_at: int) -> None:
        if self._release is not None:
            released_at = self._release(packet, ready_at)
            if released_at > ready_at and self._probes is not None:
                self._probes.release(
                    self.cycle, packet.pid, packet.flow_id, ready_at, released_at
                )
            ready_at = released_at
        vc.packet = packet
        vc.ready_at = ready_at
        vc.arriving_until = -1
        vc.inbound_port = None
        vc.departing = False
        port = self.fabric.ports[packet.current_segment()[0]]
        port.requests.append(vc)

    # ------------------------------------------------------------------
    # arbitration

    def _priority_of(self, station: Station, packet: Packet, now: int) -> float:
        if station.qos:
            value = self.policy.priority(station, packet, now)
            packet.carried_priority = value
            return value
        return packet.carried_priority

    def _arbitrate(self, now: int) -> None:
        for port in self.fabric.ports:
            if port.requests:
                self._arbitrate_port(port, now)

    def _arbitrate_port(self, port: OutputPort, now: int) -> None:
        live: list[VirtualChannel] = []
        candidates: list[tuple[float, int, int, VirtualChannel]] = []
        for vc in port.requests:
            packet = vc.packet
            if packet is None or vc.departing:
                continue
            if packet.stations[packet.hop_index] != vc.station.index:
                continue
            if packet.segments[packet.hop_index][0] != port.index:
                continue
            live.append(vc)
            if vc.ready_at <= now and vc.station.tx_busy_until <= now:
                priority = self._priority_of(vc.station, packet, now)
                candidates.append((priority, packet.created_at, packet.pid, vc))
        port.requests = live
        if port.busy_until > now or not candidates:
            return
        candidates.sort()
        for rank, (priority, _, _, vc) in enumerate(candidates):
            packet = vc.packet
            segment = packet.segments[packet.hop_index]
            next_station_index = segment[3]
            if next_station_index < 0:
                self._transfer(vc, packet, port, segment, None, now)
                return
            next_station = self.fabric.stations[next_station_index]
            allow_reserved = self.config.reserved_vc and self.policy.is_rate_compliant(
                vc.station, packet, now
            )
            if not self.config.reserved_vc:
                allow_reserved = True
            target = next_station.free_vc(allow_reserved=allow_reserved)
            if (
                target is None
                and rank == 0
                and now - vc.ready_at >= self.config.preemption_patience_cycles
            ):
                target = self._try_preempt(next_station, priority, now)
            if target is not None:
                self._transfer(vc, packet, port, segment, target, now)
                return

    def _try_preempt(
        self, station: Station, candidate_priority: float, now: int
    ) -> VirtualChannel | None:
        """Resolve priority inversion: discard the worst resident packet."""
        if not (self.config.preemption_enabled and self._caps.preemption):
            return None
        victim_vc: VirtualChannel | None = None
        victim_priority = candidate_priority
        for vc in station.vcs:
            packet = vc.packet
            if packet is None or vc.departing or vc.reserved or packet.protected:
                continue
            priority = self._priority_of(station, packet, now)
            if self.policy.may_preempt(candidate_priority, priority) and (
                victim_vc is None or priority > victim_priority
            ):
                victim_vc = vc
                victim_priority = priority
        if victim_vc is None:
            return None
        self._preempt(victim_vc, now)
        return victim_vc

    def _preempt(self, vc: VirtualChannel, now: int) -> None:
        packet = vc.packet
        self.stats.record_preemption(packet.pid, packet.tiles_done)
        self.stats.replays += 1
        if self._probes is not None:
            self._probes.preempt(
                now, packet.pid, packet.flow_id, vc.station.label,
                packet.tiles_done,
            )
        # Refund the bandwidth charged at the packet's source router:
        # the flits never delivered, and since source-stamped priority
        # travels with the packet (DPS intermediate hops have no flow
        # state), billing replays would spiral the flow's priority
        # downward and invite ever more preemptions of the same flow.
        # Downstream charges stand — the replay will genuinely
        # re-traverse those routers.
        if packet.hop_index > 0:
            source_station = self.fabric.stations[packet.stations[0]]
            if source_station.qos:
                self.policy.on_refund(source_station, packet, now)
        if vc.arriving_until > now and vc.inbound_port is not None:
            # The victim's tail is still on the wire: kill the transfer.
            vc.inbound_port.busy_until = now
        vc.clear()
        distance = abs(vc.station.node - packet.src)
        nack_at = now + distance + self.config.ack_overhead_cycles
        self._schedule(max(nack_at, now + 1), (_EV_NACK, packet))

    # ------------------------------------------------------------------
    # transfers

    def _transfer(
        self,
        vc: VirtualChannel,
        packet: Packet,
        port: OutputPort,
        segment: tuple[int, int, int, int],
        target: VirtualChannel | None,
        now: int,
    ) -> None:
        _, wire_delay, tile_span, next_station_index = segment
        busy_until = now + packet.size
        port.busy_until = busy_until
        vc.station.tx_busy_until = busy_until
        vc.departing = True
        self._schedule(busy_until, (_EV_FREE, vc, packet.pid))
        if vc.station.qos:
            self.policy.on_forward(vc.station, packet, now)
        self.stats.record_hop(vc.station.kind, tile_span)
        if self._probes is not None:
            self._probes.hop(
                now, packet.pid, packet.flow_id, port.index, port.label,
                packet.size, next_station_index < 0, packet.hop_index,
            )
        if next_station_index < 0:
            header_at = now + 1 + wire_delay
            tail_at = header_at + packet.size - 1
            self._schedule(tail_at, (_EV_DELIVER, packet, tail_at))
            ack_distance = abs(packet.dst - packet.src)
            ack_at = tail_at + ack_distance + self.config.ack_overhead_cycles
            self._schedule(ack_at, (_EV_ACK, packet.flow_id))
            return
        next_station = self.fabric.stations[next_station_index]
        packet.hop_index += 1
        packet.tiles_done += tile_span
        target.packet = packet
        target.ready_at = now + 1 + wire_delay + next_station.va_wait
        target.arriving_until = now + wire_delay + packet.size
        target.inbound_port = port
        target.departing = False
        next_port = self.fabric.ports[packet.current_segment()[0]]
        next_port.requests.append(target)

    # ------------------------------------------------------------------
    # diagnostics

    def injector_state(self, flow_id: int) -> dict[str, int]:
        """Queue depths and window occupancy of one injector (tests)."""
        injector = self._injectors[flow_id]
        return {
            "pending": len(injector.pending),
            "replay": len(injector.replay),
            "outstanding": injector.outstanding,
            "created": injector.created,
        }
