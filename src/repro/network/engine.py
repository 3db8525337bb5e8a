"""The cycle-level simulation engine for the shared-region column.

Per cycle, in order:

1. **Frame rollover** — the QoS policy flushes its bandwidth counters.
2. **Timeline events** — VC frees (tail departures), packet deliveries,
   ACKs (window release) and NACKs (replay enqueue) scheduled earlier.
3. **Injection** — each injector may generate a packet (Bernoulli in
   flits/cycle), then places the oldest replay/pending packet into its
   dedicated injection VC if its retransmission window allows.
4. **Arbitration** — every output port with requests picks the
   highest-priority ready packet that can secure a downstream VC;
   the globally best candidate may resolve priority inversion by
   preempting the worst-priority unprotected packet downstream.

Timing model (Table 1): winning arbitration at cycle *t* puts the header
on the wire after one crossbar-traversal cycle; it becomes eligible for
the next arbitration at ``t + 1 + wire_delay + next_station.va_wait``
(cut-through — the body streams behind).  Links and ejection ports
serialise at one flit/cycle, so every resource a packet wins is busy for
``size`` cycles.  Mesh routers wait 1 cycle in VA, MECS 2 (two-level
arbitration over many ports/VCs), DPS intermediate hops 0 (single-cycle
2:1 mux traversal).

Activity tracking
-----------------

The engine only *visits* components that can make progress, and only
*simulates* cycles at which something can happen:

* Injection uses geometric inter-arrival sampling: each injector
  precomputes its next emission cycle with
  :meth:`~repro.util.rng.DeterministicRng.geometric`, which consumes the
  underlying uniform stream exactly as the per-cycle Bernoulli draws
  would — the packet schedule is bit-identical, but idle injectors cost
  nothing.  Injectors are visited only when an event could let them
  make progress (emission due, queued work appearing, the window
  reopening, a dedicated injection VC freeing); every visit settles
  the injector again, so no per-cycle sweep exists.
* Output ports live in an active set while they hold requests, and each
  arbitration pass reports the earliest future cycle at which the port
  could act (VC readiness, crossbar-line and port serialisation
  horizons).  A port with a ready-but-blocked candidate pins the horizon
  to the next cycle, so preemption patience and rate-compliance windows
  are still evaluated cycle-by-cycle, exactly as the reference engine
  does.
* When no horizon, timeline event, emission, frame boundary or run
  bound falls on the next cycle, the clock jumps straight to the
  earliest of them.  Skipped cycles are ones the reference engine would
  have scanned without any state change, which is why the optimised
  engine is bit-equivalent to :mod:`repro.network.golden` (enforced by
  the golden-equivalence test suite).

Saturation hot path
-------------------

Under load the per-cycle work itself is optimised (see
``docs/performance.md`` for the invariants): PVC priorities and
rate-compliance boundaries are cached per (router, flow) in the flow
table and invalidated only by charges/refunds/flushes; for every
policy that exposes a flow table (PVC, the per-flow baseline and GSF)
each port keeps a persistent sorted candidate ranking maintained
incrementally across cycles (exact because between fences a charge
can only worsen a priority and a GSF frame tag never changes; flushes
and weight changes force a lazy rebuild, while a preemption refund
repositions in place the two injection slots of the one flow it
improved); blocked ports cache their "nothing can advance" verdict
with its exact dependency set, and a pass whose best candidate finds
every targeted station full stops there with a verdict that depends
on that candidate alone; busy ports skip their scans until
serialisation ends.

``run_until_drained`` tracks an aggregate count of undrained injectors
(maintained at ACK/creation transitions) instead of scanning every
injector every cycle.

Scenario traffic
----------------

Three emission drivers beyond the rate-driven Bernoulli injector (see
:mod:`repro.scenarios`), all flowing through one creation point
(``_admit_packet``) so packet ids, quota charges and ``admit`` events
share a single global creation order:

* **Injection processes** (``FlowSpec.injection``) supply emission
  cycles through ``next_emission(cycle, rng)`` — armed in the same
  emission heap as geometric sampling, so cycle skipping is preserved —
  plus optional per-packet draw overrides and scheduled flow-weight
  re-programmings (paired with a rank-rebuild fence, since a raised
  weight can improve priorities).
* **Scripted replays** (``FlowSpec.emissions``) re-create a recorded
  run's packets at their recorded cycles in recorded order; the clock
  never skips past the next scripted emission.
* **Closed-loop clients** (``FlowSpec.closed_loop``) hold a bounded
  number of requests in flight; delivery of a request makes the
  destination's reply flow emit a reply, and the reply's arrival
  triggers the client's next request after its think time.

Every creation leaves as an ``admit`` probe event, which an
:class:`~repro.network.trace.InjectionCapture` (a probe subscriber, on
either engine) records for replay; it observes and never perturbs.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush

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
#: Closed-loop client request issue (scenarios): create one request.
_EV_REQ = 4
#: Scheduled flow-weight re-programming (multi-phase scenarios).
_EV_WEIGHT = 5

#: Sentinel cycle meaning "no activity on this component's horizon".
_FAR = 1 << 62


class _StochasticPattern(Exception):
    """Raised by :data:`_PATTERN_PROBE` when a pattern draws randomness."""


class _PatternProbe:
    """Stand-in rng: any attribute access marks the pattern stochastic."""

    def __getattr__(self, name: str):
        raise _StochasticPattern(name)


_PATTERN_PROBE = _PatternProbe()


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
        "next_emit_cycle",
        "drained",
        "process",
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
        #: Precomputed cycle of the next emission (None = none scheduled).
        self.next_emit_cycle: int | None = None
        #: Whether the engine's aggregate drain counter regards this
        #: injector as idle (kept in sync at the few transition points).
        self.drained = False
        #: Optional injection process (see repro.scenarios.injection)
        #: replacing the geometric/Bernoulli emission draw; None keeps
        #: the classic rate-driven path bit-for-bit.
        self.process = spec.injection

    def exhausted(self) -> bool:
        """True once the injector will never produce more work."""
        limit = self.spec.packet_limit
        done_generating = limit is not None and self.created >= limit
        return done_generating and not self.pending and not self.replay

    def idle(self) -> bool:
        """True when nothing is queued or in flight for this injector."""
        return self.exhausted() and self.outstanding == 0


class ColumnSimulator:
    """Simulates one QoS-enabled shared-region column.

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
        #: Optional ProbeBus (see repro.obs.probes), the one channel of
        #: packet events; None = off.  Every hook site is guarded by a
        #: single `is not None` check, so the disabled path costs one
        #: attribute load per site and allocates nothing; probes observe
        #: after state changes and never perturb (tests/test_obs_probes.py).
        self._probes = None
        self._root_rng = DeterministicRng(self.config.seed)

        # Scenario state (repro.scenarios).  `_clients` maps a
        # closed-loop flow id to its ClosedLoopSpec; `_reply_flow` maps
        # a node to the flow id of its reply generator; `_script` is
        # the merged scripted-emission stream (trace replay) in global
        # creation order.
        self._clients: dict[int, object] = {}
        self._reply_flow: dict[int, int] = {}
        self._script: list[tuple[int, int, int, int]] | None = None
        self._script_idx = 0

        # Activity tracking (see module docstring).  Ports are woken by
        # a due-time heap (`_port_heap` entries paired with the
        # `_port_due` earliest-wake array for staleness checks); due
        # ports are arbitrated in index order because arbitration order
        # is architecturally significant and must match the reference
        # engine's flat in-order port scan.  Armed injectors are
        # likewise visited in flow-id order.
        self._event_heap: list[int] = []
        self._emit_heap: list[tuple[int, int]] = []
        self._port_heap: list[tuple[int, int]] = []
        #: Ports due again on the very next cycle (blocked candidates,
        #: single-flit serialisation).  A plain list: under congestion
        #: these re-arm every cycle and heap churn would dominate.
        self._hot_ports: list[int] = []
        self._port_due: list[int] = [_FAR] * len(fabric.ports)
        #: Injectors armed for a visit at the next injection phase, as a
        #: sorted flow-id list + membership set (injection order is
        #: architecturally significant).  An injector is armed when an
        #: event lets it make progress — queued work appears (creation,
        #: NACK), its window reopens (ACK), or a dedicated injection VC
        #: frees — and every visit settles it again, so the per-cycle
        #: sweep over all backlogged injectors disappears.  The spare
        #: list double-buffers `_inject` so no list is allocated per
        #: cycle.
        self._armed: list[int] = []
        self._armed_flags = bytearray(len(self.flows))
        self._armed_spare: list[int] = []
        self._occupied_vcs = 0
        self._undrained = 0
        self._hold = False
        #: Reusable scratch buffers for the arbitration slow path (the
        #: full ranked candidate list and the per-pass downstream
        #: station memo); arbitration is not reentrant.
        self._ranked: list[tuple[float, int, int, VirtualChannel]] = []
        self._ns_memo: dict[int, VirtualChannel | None] = {}
        self._ns_memo2: dict[int, VirtualChannel | None] = {}

        n_nodes = 1 + max(station.node for station in fabric.stations)
        # Blocked-verdict cache backing state (see `_arbitrate_port`):
        # `_station_gen[s]` advances whenever the VC occupancy of
        # station ``s`` changes (placement, transfer arrival, tail
        # free, preemption); per-(router, flow) priority/compliance
        # changes are tracked exactly by the flow table's `versions`
        # counters.  `_victim_scan` is the reusable collection buffer
        # for the (flow-state idx, version) pairs a preemption-victim
        # scan depended on.
        self._station_gen = [0] * len(fabric.stations)
        self._bp_cache: list[tuple | None] = [None] * len(fabric.ports)
        self._victim_scan: list[tuple[int, int]] = []
        # Persistent per-port candidate rankings (see
        # `_arbitrate_port`): `_rank[p]` is the sorted candidate list,
        # `_pending[p]` a min-heap of not-yet-eligible requests,
        # `_rank_targets[p]` every downstream station a ranked request
        # of the port has targeted, and `_rank_epoch[p]` the table epoch
        # the rank was built at (a frame flush or a weight change voids
        # it, forcing a rebuild because priorities may have improved).
        # `_refund_gen[node]` fences the blocked verdicts of a node's
        # ports (refunds and weight changes bump it); a refund
        # repositions its flow's entries in place instead of forcing a
        # rebuild.
        n_ports = len(fabric.ports)
        self._rank: list[list] = [[] for _ in range(n_ports)]
        self._pending: list[list] = [[] for _ in range(n_ports)]
        self._rank_targets: list[list[int]] = [[] for _ in range(n_ports)]
        self._rank_epoch = [0] * n_ports
        self._refund_gen = [0] * n_nodes
        #: The injector whose source-router priority the current pass's
        #: preemption refunded; its ranked slots are repositioned once
        #: the pass has transferred its winner.
        self._refunded: _Injector | None = None
        self._salvage: list = []
        self._pend_seq = 0
        #: Whether any station lacks flow state (DPS intermediate
        #: hops).  Only then are source-stamped carried priorities ever
        #: read, so only then are the per-candidate stamp stores and
        #: the frame-boundary stamp reset worth doing.
        self._has_nonqos = any(not station.qos for station in fabric.stations)
        self.policy.bind(n_nodes, self.flows, self.config)
        #: FlowTable hosting the policy's priority cache (None when the
        #: policy's priority is cycle-dependent and uncacheable).  The
        #: arbitration loop reads the cache arrays inline.
        self._prio_table = self.policy.priority_cache()
        self._n_flows = (
            self._prio_table.n_flows if self._prio_table is not None else 0
        )

        #: Declared policy capabilities — the only channel through which
        #: the engine learns what machinery the policy needs (never
        #: isinstance checks).
        caps = self.policy.capabilities
        self._caps = caps
        #: Injection-release hook, bound once; None when the policy does
        #: not throttle sources, keeping `_place` a plain store.
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
            injector = _Injector(
                flow_id, spec, station, vc_index, self._root_rng.spawn(flow_id)
            )
            # Backlink the injector's two dedicated slots so a VC free
            # (tail departure or preemption) re-arms exactly this
            # injector.
            station.vcs[vc_index].owner = injector
            station.vcs[vc_index + 1].owner = injector
            injector.drained = injector.idle()
            if not injector.drained:
                self._undrained += 1
            limit = spec.packet_limit
            if spec.reply_sink:
                if spec.node in self._reply_flow:
                    raise ConfigurationError(
                        f"two reply flows at node {spec.node}"
                    )
                self._reply_flow[spec.node] = flow_id
            elif spec.closed_loop is not None:
                self._clients[flow_id] = spec.closed_loop
                initial = spec.closed_loop.outstanding
                if limit is not None:
                    initial = min(initial, limit)
                for _ in range(initial):
                    self._schedule(self.cycle, (_EV_REQ, flow_id))
            elif injector.process is not None:
                injector.process.reset()
                if limit is None or limit > 0:
                    self._schedule_emission(injector, 0)
            elif injector.emit_probability > 0 and (limit is None or limit > 0):
                self._schedule_emission(injector, 0)
            weight_changes = (
                injector.process.weight_changes()
                if injector.process is not None
                else spec.weight_schedule
            )
            for when, weight in weight_changes:
                if when > 0:
                    self._schedule(when, (_EV_WEIGHT, flow_id, weight))
            self._injectors.append(injector)

        script_entries = []
        for flow_id, spec in enumerate(self.flows):
            if spec.emissions:
                for cycle, seq, dst, size in spec.emissions:
                    script_entries.append((seq, cycle, flow_id, dst, size))
        if script_entries:
            # `seq` is the recorded global creation order — packet ids
            # and per-flow quota charges replay exactly when creations
            # happen in this order.
            script_entries.sort()
            self._script = [
                (cycle, flow_id, dst, size)
                for _, cycle, flow_id, dst, size in script_entries
            ]
            for before, after in zip(self._script, self._script[1:]):
                if after[0] < before[0]:
                    raise ConfigurationError(
                        "scripted emissions are not in nondecreasing cycle "
                        "order across flows — the pump would skip them"
                    )
        for flow_id in self._clients:
            spec = self.flows[flow_id]
            # Every destination a request can reach needs a reply flow;
            # fixed-destination patterns (the closed-loop builders use
            # hotspot) are fully checked here, random ones fail at
            # delivery time instead.
            try:
                probe = spec.pattern(spec.node, _PATTERN_PROBE)
            except _StochasticPattern:
                continue
            if probe not in self._reply_flow:
                raise ConfigurationError(
                    f"closed-loop flow {flow_id} targets node {probe} "
                    "which has no reply flow"
                )

    # ------------------------------------------------------------------
    # public API

    def run(self, cycles: int, *, warmup: int = 0) -> NetworkStats:
        """Advance the simulation; measure after ``warmup`` cycles."""
        if warmup:
            self.stats.set_window(self.cycle + warmup)
        end = self.cycle + cycles
        while self.cycle < end:
            self._step(end)
        return self.stats

    def run_window(self, warmup: int, window: int) -> NetworkStats:
        """Warm up, then measure exactly ``window`` cycles (Table 2)."""
        self.stats.set_window(self.cycle + warmup, self.cycle + warmup + window)
        end = self.cycle + warmup + window
        while self.cycle < end:
            self._step(end)
        return self.stats

    def run_until_drained(self, max_cycles: int) -> int:
        """Run until every finite injector is idle; return the cycle.

        Used by Figure 6's slowdown measurement: the workload is a fixed
        packet budget per source and the metric is completion time.
        """
        deadline = self.cycle + max_cycles
        while self.cycle < deadline:
            if self._undrained == 0:
                return self.cycle
            self._step(deadline, stop_on_drain=True)
        raise SimulationError(
            f"workload did not drain within {max_cycles} cycles "
            f"(outstanding={[i.outstanding for i in self._injectors]})"
        )

    # ------------------------------------------------------------------
    # cycle phases

    def _step(self, limit: int, *, stop_on_drain: bool = False) -> None:
        now = self.cycle
        frame = self.config.frame_cycles
        if now > 0 and now % frame == 0:
            self.policy.on_frame(now)
            if self._probes is not None:
                self._probes.frame(now)
            # A frame flush clears every bandwidth counter, so priority
            # stamps carried by in-flight packets (used at stations with
            # no flow state, e.g. DPS intermediate hops) must be cleared
            # too — otherwise pre-flush stamps look spuriously worse
            # than post-flush traffic and trigger preemption storms.
            # The occupancy counter bounds the scan to frames with
            # packets actually resident somewhere in the fabric, and a
            # fabric whose stations all hold flow state never reads the
            # stamps at all.
            if self._has_nonqos and self._occupied_vcs:
                for station in self.fabric.stations:
                    for vc in station.vcs:
                        if vc.packet is not None:
                            vc.packet.carried_priority = 0.0
        event_heap = self._event_heap
        while event_heap and event_heap[0] <= now:
            heappop(event_heap)
        events = self._timeline.pop(now, None)
        if events:
            self._process_events(events, now)
        self._hold = False
        self._inject(now)
        self._arbitrate(now)
        # Cycle skipping: jump to the earliest cycle at which anything
        # can happen — a port wake-up, a timeline event, a scheduled
        # emission, the next frame boundary, or the caller's run bound.
        # `_hold` (set by a preemption, which frees a VC after the
        # injection phase) and a completed drain (the caller must
        # observe the exact completion cycle) pin the clock to
        # single-step.
        advance = now + 1
        if (
            not self._hold
            and not self._hot_ports
            and not (stop_on_drain and self._undrained == 0)
        ):
            target = now - now % frame + frame
            port_heap = self._port_heap
            if port_heap and port_heap[0][0] < target:
                target = port_heap[0][0]
            if event_heap and event_heap[0] < target:
                target = event_heap[0]
            emit_heap = self._emit_heap
            if emit_heap and emit_heap[0][0] < target:
                target = emit_heap[0][0]
            script = self._script
            if (
                script is not None
                and self._script_idx < len(script)
                and script[self._script_idx][0] < target
            ):
                target = script[self._script_idx][0]
            if limit < target:
                target = limit
            if target > advance:
                if self._probes is not None:
                    self._probes.skip(now, target)
                advance = target
        self.cycle = advance

    def _schedule(self, when: int, event: tuple) -> None:
        bucket = self._timeline.get(when)
        if bucket is None:
            self._timeline[when] = [event]
            heappush(self._event_heap, when)
        else:
            bucket.append(event)

    def _process_events(self, events: list[tuple], now: int) -> None:
        for event in events:
            kind = event[0]
            if kind == _EV_FREE:
                _, vc, pid = event
                if vc.packet is not None and vc.packet.pid == pid and vc.departing:
                    vc.clear()
                    self._station_gen[vc.station.index] += 1
                    self._occupied_vcs -= 1
                    owner = vc.owner
                    # A freed slot enables a placement only when the
                    # head of the queue may actually enter it: replays
                    # bypass the window, new packets need room in it.
                    if owner is not None and (
                        owner.replay
                        or (
                            owner.pending
                            and owner.outstanding < self.config.window_packets
                        )
                    ):
                        self._arm(owner.flow_id)
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
                if packet.reply_to >= 0:
                    self._on_reply_delivered(packet, now)
                elif self._clients and packet.flow_id in self._clients:
                    self._on_request_delivered(packet, now)
            elif kind == _EV_ACK:
                _, flow_id = event
                injector = self._injectors[flow_id]
                injector.outstanding -= 1
                if injector.pending or injector.replay:
                    # The window just reopened — but a visit can only
                    # place something if a dedicated slot is free.
                    vcs = injector.station.vcs
                    slot = injector.vc_index
                    if (
                        vcs[slot].packet is None
                        or vcs[slot + 1].packet is None
                    ):
                        self._arm(flow_id)
                if (
                    not injector.drained
                    and injector.outstanding == 0
                    and injector.exhausted()
                ):
                    injector.drained = True
                    self._undrained -= 1
            elif kind == _EV_NACK:
                _, packet = event
                packet.reset_for_replay()
                injector = self._injectors[packet.flow_id]
                injector.replay.append(packet)
                self._note_live(injector)
                if self._probes is not None:
                    self._probes.nack(
                        now, packet.pid, packet.flow_id, packet.attempt
                    )
            elif kind == _EV_REQ:
                _, flow_id = event
                injector = self._injectors[flow_id]
                limit = injector.spec.packet_limit
                if limit is None or injector.created < limit:
                    self._create_packet(injector, now)
            elif kind == _EV_WEIGHT:
                _, flow_id, weight = event
                # The live weight moves in the bound policy only; the
                # FlowSpec stays untouched so a workload list can be
                # reused across simulators deterministically.
                self.policy.set_weight(flow_id, weight)
                # A raised weight improves the flow's priority at every
                # router, so every port ranking (built on the
                # only-worsens invariant) must be rebuilt lazily, and
                # every node's blocked verdicts (keyed on the refund
                # generation) dropped.
                rank_epoch = self._rank_epoch
                for pidx in range(len(rank_epoch)):
                    rank_epoch[pidx] = -1
                refund_gen = self._refund_gen
                for node in range(len(refund_gen)):
                    refund_gen[node] += 1

    # ------------------------------------------------------------------
    # injection

    def _arm(self, flow_id: int) -> None:
        """Schedule an injector visit at the next injection phase."""
        if not self._armed_flags[flow_id]:
            self._armed_flags[flow_id] = 1
            self._armed.append(flow_id)
            if self._probes is not None:
                self._probes.arm(self.cycle, flow_id)

    def _note_live(self, injector: _Injector) -> None:
        """Arm an injector that just gained queued work (undrained too)."""
        flow_id = injector.flow_id
        flags = self._armed_flags
        if not flags[flow_id]:
            flags[flow_id] = 1
            self._armed.append(flow_id)
            if self._probes is not None:
                self._probes.arm(self.cycle, flow_id)
        if injector.drained:
            injector.drained = False
            self._undrained += 1

    def _schedule_emission(self, injector: _Injector, start_cycle: int) -> None:
        """Precompute the injector's next emission cycle.

        For rate-driven flows the geometric draw consumes the injector's
        RNG stream exactly as per-cycle Bernoulli trials starting at
        ``start_cycle`` would, so the emission schedule matches the
        reference engine to the cycle.  Flows with an injection process
        delegate to its ``next_emission(cycle, rng)`` contract instead —
        called with the same ``start_cycle`` sequence in both engines,
        which is what keeps them bit-equivalent on scenario traffic.
        """
        process = injector.process
        if process is None:
            cycle = (
                start_cycle + injector.rng.geometric(injector.emit_probability) - 1
            )
        else:
            emission = process.next_emission(start_cycle, injector.rng)
            if emission is None:
                injector.next_emit_cycle = None
                return
            if emission < start_cycle:
                raise SimulationError(
                    f"injection process for flow {injector.flow_id} scheduled "
                    f"an emission at {emission}, before cycle {start_cycle}"
                )
            cycle = emission
        injector.next_emit_cycle = cycle
        heappush(self._emit_heap, (cycle, injector.flow_id))

    def _inject(self, now: int) -> None:
        if self._script is not None:
            # Scripted (replayed) creations run before the armed-list
            # swap so the flows they wake are visited this same cycle —
            # mirroring how the recorded run's event-phase creations
            # (e.g. closed-loop replies) preceded the injection phase.
            self._pump_script(now)
        emit_heap = self._emit_heap
        due: list[int] | None = None
        while emit_heap and emit_heap[0][0] == now:
            if due is None:
                due = []
            due.append(heappop(emit_heap)[1])
        armed = self._armed
        if due is None and not armed:
            return
        # Take ownership of the current armed list (double-buffered, so
        # no list is allocated per cycle).  Arms issued while the loop
        # runs land in the fresh list; a same-visit arm for a flow being
        # processed is spurious (the visit settles it) and is swept off
        # below.  Arms append unsorted; one C-level sort here replaces
        # a bisect insertion per arm.
        self._armed = self._armed_spare
        self._armed_spare = armed
        armed.sort()
        flags = self._armed_flags
        window = self.config.window_packets
        injectors = self._injectors
        stats = self.stats
        probes = self._probes
        marked = 0
        # Inline two-pointer merge of the two sorted id lists (arms
        # during the loop go to the fresh list, so iterating these in
        # place is safe).  Injection order is flow-id order, as in the
        # reference engine.
        i = j = 0
        n_armed = len(armed)
        n_due = 0 if due is None else len(due)
        while True:
            if i < n_armed:
                flow_id = armed[i]
                if j < n_due:
                    flow_due = due[j]
                    if flow_due <= flow_id:
                        if flow_due == flow_id:
                            i += 1
                        flow_id = flow_due
                        j += 1
                    else:
                        i += 1
                else:
                    i += 1
            elif j < n_due:
                flow_id = due[j]
                j += 1
            else:
                break
            flags[flow_id] = 0
            injector = injectors[flow_id]
            limit = injector.spec.packet_limit
            if injector.next_emit_cycle == now:
                injector.next_emit_cycle = None
                if limit is None or injector.created < limit:
                    self._create_packet(injector, now)
                    if limit is None or injector.created < limit:
                        self._schedule_emission(injector, now + 1)
            station = injector.station
            vcs = station.vcs
            slot = injector.vc_index
            last_slot = slot + 1
            if vcs[slot].packet is not None and vcs[last_slot].packet is not None:
                slot = last_slot + 1  # both staging slots occupied
            elif not injector.replay and injector.outstanding >= window:
                # Pending heads are always fresh packets (replays live
                # in their own queue), so a full window blocks them.
                slot = last_slot + 1
            while slot <= last_slot:
                queue = injector.replay or injector.pending
                if not queue:
                    break
                vc = vcs[slot]
                slot += 1
                if vc.packet is not None:
                    continue
                packet = queue[0]
                is_new = packet.attempt == 0
                if is_new and injector.outstanding >= window:
                    break
                queue.popleft()
                if is_new:
                    injector.outstanding += 1
                    stats.injected_packets += 1
                self._build_route(injector, packet)
                self._place(vc, packet, now + station.va_wait)
                if probes is not None:
                    probes.inject(
                        now, packet.pid, packet.flow_id, station.label,
                        packet.attempt,
                    )
            if probes is not None:
                probes.sleep(now, flow_id)
            # The visit settled this injector: any way it can make
            # progress again is re-armed by a later event (VC free,
            # ACK, NACK, emission), so a same-visit arm is spurious.
            if flags[flow_id]:
                flags[flow_id] = 0
                marked += 1
        if marked:
            fresh = self._armed
            write = 0
            for flow_id in fresh:
                if flags[flow_id]:
                    fresh[write] = flow_id
                    write += 1
            del fresh[write:]
        del armed[:]  # consumed; becomes next cycle's spare buffer

    def _pump_script(self, now: int) -> None:
        """Create this cycle's scripted (replayed) packets, in order."""
        script = self._script
        index = self._script_idx
        length = len(script)
        while index < length and script[index][0] == now:
            _, flow_id, dst, size = script[index]
            index += 1
            self._admit_packet(self._injectors[flow_id], now, dst, size)
        self._script_idx = index

    def _create_packet(self, injector: _Injector, now: int) -> None:
        spec = injector.spec
        process = injector.process
        drawn = (
            process.draw_packet(spec, now, injector.rng)
            if process is not None
            else None
        )
        if drawn is None:
            size = injector.sizes[injector.rng.choice_index(injector.size_weights)]
            dst = spec.pattern(spec.node, injector.rng) if spec.pattern else spec.node
        else:
            dst, size = drawn
        self._admit_packet(injector, now, dst, size)

    def _admit_packet(
        self,
        injector: _Injector,
        now: int,
        dst: int,
        size: int,
        reply_to: int = -1,
    ) -> None:
        """Materialise one packet into the injector's pending queue.

        The single creation point for every emission driver — rate and
        process draws, scripted replays, closed-loop requests and
        destination-generated replies — so packet-id assignment, quota
        charging and the ``admit`` event always happen in one global
        creation order.
        """
        spec = injector.spec
        packet = Packet(self._next_pid, injector.flow_id, spec.node, dst, size, now)
        packet.reply_to = reply_to
        self._next_pid += 1
        injector.created += 1
        self.stats.created_packets += 1
        self.stats.created_flits += size
        packet.protected = self.policy.on_packet_created(injector.flow_id, size, now)
        injector.pending.append(packet)
        self._note_live(injector)
        if self._probes is not None:
            self._probes.admit(
                now, packet.pid, packet.flow_id, packet.src, packet.dst, size,
                packet.protected,
            )

    # ------------------------------------------------------------------
    # closed-loop clients (scenarios)

    def _on_request_delivered(self, packet: Packet, now: int) -> None:
        """A closed-loop request arrived: the destination emits a reply."""
        reply_flow = self._reply_flow.get(packet.dst)
        if reply_flow is None:
            raise SimulationError(
                f"closed-loop request delivered to node {packet.dst}, "
                "which has no reply flow"
            )
        loop = self._clients[packet.flow_id]
        self._admit_packet(
            self._injectors[reply_flow],
            now,
            dst=packet.src,
            size=loop.reply_flits,
            reply_to=packet.flow_id,
        )

    def _on_reply_delivered(self, packet: Packet, now: int) -> None:
        """A reply reached its client: issue the next request."""
        flow_id = packet.reply_to
        injector = self._injectors[flow_id]
        limit = injector.spec.packet_limit
        if limit is not None and injector.created >= limit:
            return
        think = self._clients[flow_id].think_cycles
        if think == 0:
            self._create_packet(injector, now)
        else:
            self._schedule(now + think, (_EV_REQ, flow_id))

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
        vc.epoch += 1
        vc.prio_idx = vc.station.node * self._n_flows + packet.flow_id
        self._station_gen[vc.station.index] += 1
        self._occupied_vcs += 1
        port = self.fabric.ports[packet.current_segment()[0]]
        port.requests.append((vc.epoch, vc))
        self._wake_port(port.index, ready_at)

    def _wake_port(self, index: int, when: int) -> None:
        """Schedule an arbitration visit for a port no later than ``when``.

        ``when`` is a conservative lower bound (a new request's
        ``ready_at``, or the horizon the last arbitration pass
        reported); an early visit is harmless — the pass recomputes the
        true horizon from port state — but a late one would miss work,
        so pushes only ever move a port's due time earlier.
        """
        due = self._port_due
        if when < due[index]:
            due[index] = when
            heappush(self._port_heap, (when, index))

    # ------------------------------------------------------------------
    # arbitration

    def _arbitrate(self, now: int) -> None:
        """Arbitrate every port due at ``now``, in port-index order."""
        port_due = self._port_due
        hot = self._hot_ports
        due: list[int] = []
        if hot:
            for index in hot:
                if port_due[index] == now:
                    port_due[index] = _FAR
                    due.append(index)
            del hot[:]
        heap = self._port_heap
        while heap and heap[0][0] <= now:
            when, index = heappop(heap)
            # An entry is live only while it matches the recorded due
            # time; anything else was superseded by an earlier wake.
            if when == port_due[index]:
                port_due[index] = _FAR
                due.append(index)
        if not due:
            return
        due.sort()
        ports = self.fabric.ports
        nxt = now + 1
        for index in due:
            horizon = self._arbitrate_port(ports[index], now)
            if horizon == nxt:
                port_due[index] = nxt
                hot.append(index)
            elif horizon < _FAR:
                self._wake_port(index, horizon)

    def _arbitrate_port(self, port: OutputPort, now: int) -> int:
        """One arbitration pass; returns the port's next-activity horizon.

        The horizon is a lower bound on the next cycle at which this
        port's state can change without an intervening timeline event or
        wake-up: ``now + 1`` when a ready candidate is blocked (patience
        and rate-compliance must be re-evaluated every cycle), otherwise
        the earliest of the port/crossbar-line serialisation bounds and
        the requests' ``ready_at`` times.

        Policies that expose a flow table run the incremental path:
        PVC and the per-flow baseline, whose priority is pure (router,
        flow) table state, and GSF, whose frame-tag priority is fixed
        before placement.  Each port keeps a **persistent sorted
        candidate ranking** maintained across passes (`port.requests`
        degenerates to an inbox drained into it), valid because
        between fences a priority can only *worsen* (a charge) or stay
        put (a frame tag) — an entry whose (router, flow) state changed
        (flow-table `versions`) is repositioned when encountered.  Of
        the events that can improve priorities, a frame flush (which
        also clears carried priorities at stations without flow state)
        and a weight change trigger a lazy rebuild, while a preemption
        refund repositions in place the one (router, flow) it improved
        (`_rerank_refunded`).  A pass then validates the front of the
        ranking instead of re-scoring every request, and the
        fall-through order for a blocked winner is already in hand
        without a sort.

        A pass that concludes "ready candidates exist but none can
        advance" additionally caches that verdict with its exact
        dependencies (candidate versions, station occupancy
        generations and tx lines, downstream occupancy, failed
        victim-scan reads, frame epoch, and the pure time crossings —
        eligibility, preemption patience, compliance boundaries), so
        the per-cycle revisit of a saturated blocked port is a few
        dozen integer compares.  When the best eligible candidate
        finds no free VC at all and cannot preempt, and every station
        the port's ranked requests target is full too, no later
        candidate can advance (only the best may preempt): the walk
        stops there and the verdict depends on that one candidate.

        The no-QoS policy hashes the cycle into its priorities, so
        nothing is cacheable across cycles: it takes the single-scan
        path (`_arbitrate_port_scan`).
        """
        table = self._prio_table
        if table is None:
            return self._arbitrate_port_scan(port, now)
        pidx = port.index
        cached = self._bp_cache[pidx]
        if cached is not None:
            ok = (
                not port.requests
                and now < cached[0]
                and table.epoch == cached[1]
                and self._refund_gen[port.node] == cached[2]
            )
            if ok:
                versions = table.versions
                for idx, version in cached[3]:
                    if versions[idx] != version:
                        ok = False
                        break
            if ok:
                station_gen = self._station_gen
                for st, s_gen in cached[4]:
                    if station_gen[st.index] != s_gen or st.tx_busy_until > now:
                        ok = False
                        break
            if ok:
                for s_index, s_gen in cached[5]:
                    if station_gen[s_index] != s_gen:
                        ok = False
                        break
            if ok:
                for idx, version in cached[6]:
                    if versions[idx] != version:
                        ok = False
                        break
                if ok:
                    if self._probes is not None:
                        self._probes.arb_block(now, pidx, len(cached[3]))
                    return now + 1
            self._bp_cache[pidx] = None
        busy = port.busy_until
        if busy > now:
            # Serialising: nothing can be granted until busy-end.  The
            # inbox keeps accumulating; the wake-up pass drains it.
            return busy
        rank = self._rank[pidx]
        pending = self._pending[pidx]
        targets = self._rank_targets[pidx]
        prio_values = table.prio_values
        prio_stamps = table.prio_stamps
        epoch_t = table.epoch
        versions = table.versions
        policy_priority = self.policy.priority
        refund_gen = self._refund_gen[port.node]
        if self._rank_epoch[pidx] != epoch_t:
            # Priorities may have *improved* (a frame flush zeroed the
            # counters, or a weight was raised): the stored order is no
            # longer monotonically repairable — rebuild.
            self._rank_epoch[pidx] = epoch_t
            if rank or pending:
                salvage = self._salvage
                del salvage[:]
                for entry in rank:
                    vc = entry[7]
                    if (
                        vc.epoch == entry[5]
                        and vc.packet is not None
                        and not vc.departing
                    ):
                        salvage.append((entry[5], vc))
                for item in pending:
                    vc = item[3]
                    if (
                        vc.epoch == item[2]
                        and vc.packet is not None
                        and not vc.departing
                    ):
                        salvage.append((item[2], vc))
                del rank[:]
                del pending[:]
                for epoch, vc in salvage:
                    self._rank_admit(rank, pending, targets, epoch, vc, now)
                del salvage[:]
        requests = port.requests
        if requests:
            for epoch, vc in requests:
                self._rank_admit(rank, pending, targets, epoch, vc, now)
            del requests[:]
        while pending and pending[0][0] <= now:
            item = heappop(pending)
            self._rank_admit(rank, pending, targets, item[2], item[3], now)
        wait_until = pending[0][0] if pending else _FAR
        config = self.config
        reserved_vc = config.reserved_vc
        stations = self.fabric.stations
        comp_thresholds = table.comp_thresholds
        comp_sizes = table.comp_sizes
        comp_stamps = table.comp_stamps
        comp_cached = self._caps.compliance_cached
        stamp_carried = self._has_nonqos
        memo = self._ns_memo
        memo.clear()
        memo2 = self._ns_memo2
        memo2.clear()
        comp_gate = _FAR
        best_entry = None
        preempt_scanned = False
        lean = False
        k = 0
        while k < len(rank):
            entry = rank[k]
            vc = entry[7]
            if vc.epoch != entry[5]:
                del rank[k]
                continue
            packet = vc.packet
            if packet is None or vc.departing:
                del rank[k]
                continue
            idx = entry[3]
            if versions[idx] != entry[4]:
                # The (router, flow) state moved under this entry: its
                # true priority is no better than the stored one, so
                # repositioning it before it is considered keeps the
                # order exact at every point the order is read.
                del rank[k]
                station = vc.station
                if station.qos:
                    if prio_stamps[idx] == epoch_t:
                        priority = prio_values[idx]
                    else:
                        priority = policy_priority(station, packet, now)
                else:
                    priority = packet.carried_priority
                self._pend_seq += 1
                insort(
                    rank,
                    (priority, entry[1], entry[2], idx, versions[idx],
                     entry[5], self._pend_seq, vc),
                )
                continue
            line_free = vc.station.tx_busy_until
            if line_free > now:
                if line_free < wait_until:
                    wait_until = line_free
                k += 1
                continue
            k += 1
            # Eligible, and — by construction — in exact rank order.
            priority = entry[0]
            segment = packet.segments[packet.hop_index]
            nsi = segment[3]
            is_best = best_entry is None
            if is_best:
                best_entry = entry
            if nsi < 0:
                if stamp_carried:
                    packet.carried_priority = priority
                del rank[k - 1]
                self._transfer(vc, packet, port, segment, None, now)
                return self._post_transfer_horizon(port, rank, pending)
            next_station = stations[nsi]
            if nsi in memo:
                ff = memo[nsi]
            else:
                ff = next_station.free_vc(allow_reserved=True)
                memo[nsi] = ff
            if ff is None:
                target = None
            elif reserved_vc and ff.reserved:
                if comp_cached and (
                    comp_stamps[idx] == epoch_t
                    and comp_sizes[idx] == packet.size
                ):
                    compliant = now >= comp_thresholds[idx]
                else:
                    compliant = self.policy.is_rate_compliant(
                        vc.station, packet, now
                    )
                if compliant:
                    target = ff
                else:
                    if nsi in memo2:
                        target = memo2[nsi]
                    else:
                        target = next_station.free_vc(allow_reserved=False)
                        memo2[nsi] = target
                    if target is None:
                        # The compliance check left a fresh boundary.
                        gate = comp_thresholds[idx]
                        if gate < comp_gate:
                            comp_gate = gate
            else:
                target = ff
            if target is None and is_best and (
                now - vc.ready_at >= config.preemption_patience_cycles
            ):
                preempt_scanned = True
                target = self._try_preempt(next_station, priority, now)
            if target is not None:
                if stamp_carried:
                    packet.carried_priority = priority
                del rank[k - 1]
                self._transfer(vc, packet, port, segment, target, now)
                if preempt_scanned and self._refunded is not None:
                    self._rerank_refunded(now)
                return self._post_transfer_horizon(port, rank, pending)
            if ff is None and is_best and self._all_full(targets, memo):
                # The best candidate found no free VC at all and could
                # not preempt, and every station a ranked request of
                # this port targets is full: no later candidate can
                # advance (only the best may preempt), so stop here.
                lean = True
                break
        if best_entry is None:
            busy = port.busy_until
            return busy if busy > wait_until else wait_until
        # Ready candidates exist but none could advance: patience and
        # compliance windows may change the outcome next cycle, so the
        # port is revisited every cycle — with the verdict cached, each
        # revisit costs a few dozen integer compares.
        station_gen = self._station_gen
        if lean:
            # Only the best candidate was walked.  Charges only worsen
            # the others, so they stay behind it until a fence (epoch,
            # refund generation) or new request; `memo` holds exactly
            # the full target stations, and `wait_until` the line-busy
            # entries ranked ahead of the best.
            cand_pairs = [(best_entry[3], best_entry[4])]
            cand_stations = [best_entry[7].station]
        else:
            # The iteration above ran the whole ranking, so its
            # surviving entries are the exact candidate dependencies.
            cand_pairs = []
            cand_stations = []
            for entry in rank:
                vc = entry[7]
                if vc.station.tx_busy_until > now:
                    continue
                cand_pairs.append((entry[3], entry[4]))
                st = vc.station
                if st not in cand_stations:
                    cand_stations.append(st)
        time_gate = wait_until
        if config.preemption_enabled and self._caps.preemption:
            patience_cross = (
                best_entry[7].ready_at + config.preemption_patience_cycles
            )
            if now < patience_cross < time_gate:
                time_gate = patience_cross
        if comp_gate < time_gate:
            time_gate = comp_gate
        self._bp_cache[pidx] = (
            time_gate,
            epoch_t,
            refund_gen,
            tuple(cand_pairs),
            tuple((st, station_gen[st.index]) for st in cand_stations),
            tuple((s, station_gen[s]) for s in memo),
            tuple(self._victim_scan) if preempt_scanned else (),
        )
        if self._probes is not None:
            self._probes.arb_block(now, pidx, len(cand_pairs))
        return now + 1

    @staticmethod
    def _post_transfer_horizon(port: OutputPort, rank, pending) -> int:
        """Next-activity bound for a port that just granted a packet.

        With the winner's entry removed, an empty ranking and pending
        heap mean the port has no follow-on work: it need not wake at
        busy-end at all (new requests wake it explicitly).  Otherwise
        busy-end (or a later pending eligibility) is the bound.
        """
        if rank:
            return port.busy_until
        if pending:
            busy = port.busy_until
            top = pending[0][0]
            return busy if busy > top else top
        return _FAR

    def _rank_admit(
        self, rank, pending, targets: list[int], epoch: int, vc, now: int
    ) -> None:
        """Score a request into the port's ranking (or park it).

        Requests not yet ready are parked in the pending heap keyed by
        their earliest-eligibility bound; line-busy entries are ranked
        anyway (their priority does not depend on the line) and skipped
        on encounter until the line frees.  A ranked request's
        downstream station joins the port's ``targets`` (-1 on an
        ejection port, which is never read: its best always advances).
        """
        packet = vc.packet
        if vc.epoch != epoch or packet is None or vc.departing:
            return
        ready_at = vc.ready_at
        station = vc.station
        if ready_at > now:
            line_free = station.tx_busy_until
            self._pend_seq += 1
            heappush(
                pending,
                (
                    ready_at if ready_at >= line_free else line_free,
                    self._pend_seq, epoch, vc,
                ),
            )
            return
        table = self._prio_table
        idx = vc.prio_idx
        if station.qos:
            if table.prio_stamps[idx] == table.epoch:
                priority = table.prio_values[idx]
            else:
                priority = self.policy.priority(station, packet, now)
        else:
            priority = packet.carried_priority
        self._pend_seq += 1
        insort(
            rank,
            (priority, packet.created_at, packet.pid, idx,
             table.versions[idx], epoch, self._pend_seq, vc),
        )
        nsi = packet.segments[packet.hop_index][3]
        if nsi not in targets:
            targets.append(nsi)

    def _all_full(self, targets: list[int], memo: dict) -> bool:
        """Whether no station in ``targets`` has a free VC, reserved or not.

        Reads and fills the pass's ``free_vc`` memo.  Called only after
        the best candidate found no free VC, so stations never grow
        overflow VCs here.
        """
        stations = self.fabric.stations
        for nsi in targets:
            if nsi in memo:
                if memo[nsi] is not None:
                    return False
            else:
                free = stations[nsi].free_vc(allow_reserved=True)
                memo[nsi] = free
                if free is not None:
                    return False
        return True

    def _rerank_refunded(self, now: int) -> None:
        """Reposition the ranked slots of the flow a refund just improved.

        A refund improves one (router, flow) state: the victim's flow at
        its source router.  Routes never revisit their source node, so
        the only VCs holding that state are the flow's two injection
        slots, each ranked (if at all) at its first-hop port.  Called
        after the preempting pass has removed its winner and
        transferred, so no walk is holding a position in a ranking.
        """
        injector = self._refunded
        self._refunded = None
        vcs = injector.station.vcs
        for vc in (vcs[injector.vc_index], vcs[injector.vc_index + 1]):
            packet = vc.packet
            if packet is None or vc.departing:
                continue
            pidx = packet.segments[0][0]
            rank = self._rank[pidx]
            epoch = vc.epoch
            for k, entry in enumerate(rank):
                if entry[7] is vc and entry[5] == epoch:
                    del rank[k]
                    self._rank_admit(
                        rank, self._pending[pidx], self._rank_targets[pidx],
                        epoch, vc, now,
                    )
                    break

    def _arbitrate_port_scan(self, port: OutputPort, now: int) -> int:
        """Single-scan arbitration pass (cycle-dependent priorities).

        Runs only for policies without a priority cache (no-QoS, whose
        priority hashes the cycle): the same decision procedure as the
        ranking path, re-scoring every request each pass.  The request
        list is pruned in place, the best candidate is tracked in one
        scan, and the full sorted ranking is built only when the winner
        cannot advance.  Nothing here is cacheable across cycles, so no
        blocked-verdict state is kept.
        """
        busy = port.busy_until
        if busy > now:
            # Serialising: nothing can be granted, and the scan's only
            # products (lazy pruning, the wait horizon) can wait until
            # the busy-end pass.
            return busy
        requests = port.requests
        wait_until = _FAR
        stamp_carried = self._has_nonqos
        policy_priority = self.policy.priority
        best_vc: VirtualChannel | None = None
        best_priority = 0.0
        best_created = 0
        best_pid = 0
        n_candidates = 0
        write = 0
        for entry in requests:
            epoch, vc = entry
            if vc.epoch != epoch:
                continue  # stale: the VC was cleared and reused
            packet = vc.packet
            if packet is None or vc.departing:
                continue
            # An epoch-current, occupied, non-departing entry is always
            # a genuine request for this port: entries are appended at
            # placement for exactly the packet's current segment, a
            # forwarded packet is fenced by `departing` until its VC
            # frees, and any reuse of the VC bumps the epoch.
            station = vc.station
            requests[write] = entry
            write += 1
            ready_at = vc.ready_at
            line_free = station.tx_busy_until
            if ready_at <= now and line_free <= now:
                if station.qos:
                    priority = policy_priority(station, packet, now)
                    if stamp_carried:
                        packet.carried_priority = priority
                else:
                    priority = packet.carried_priority
                n_candidates += 1
                created_at = packet.created_at
                if (
                    best_vc is None
                    or priority < best_priority
                    or (
                        priority == best_priority
                        and (
                            created_at < best_created
                            or (
                                created_at == best_created
                                and packet.pid < best_pid
                            )
                        )
                    )
                ):
                    best_vc = vc
                    best_priority = priority
                    best_created = created_at
                    best_pid = packet.pid
            else:
                eligible_at = ready_at if ready_at >= line_free else line_free
                if eligible_at < wait_until:
                    wait_until = eligible_at
        if write != len(requests):
            del requests[write:]
        if best_vc is None:
            busy = port.busy_until
            return busy if busy > wait_until else wait_until
        config = self.config
        reserved_vc = config.reserved_vc
        stations = self.fabric.stations
        # Downstream-station memo for this pass: ``free_vc`` is pure
        # (except under per-flow overflow, where the first candidate
        # always advances and the pass ends), so its first-free answer
        # per station is computed once and shared by every candidate
        # targeting that station.  Compliance only matters when the
        # first free VC is the reserved one — the one case where the
        # admission flag changes which VC (if any) a flow can take.
        memo = self._ns_memo
        memo.clear()
        memo2 = self._ns_memo2
        memo2.clear()
        # Rank 0: the single-scan winner, with preemption rights.
        vc = best_vc
        packet = vc.packet
        segment = packet.segments[packet.hop_index]
        next_station_index = segment[3]
        if next_station_index < 0:
            self._transfer(vc, packet, port, segment, None, now)
            return port.busy_until if n_candidates > 1 else max(
                port.busy_until, wait_until
            )
        next_station = stations[next_station_index]
        first_free = next_station.free_vc(allow_reserved=True)
        memo[next_station_index] = first_free
        if first_free is None:
            target = None
        elif reserved_vc and first_free.reserved:
            if self.policy.is_rate_compliant(vc.station, packet, now):
                target = first_free
            else:
                target = next_station.free_vc(allow_reserved=False)
                memo2[next_station_index] = target
        else:
            target = first_free
        if (
            target is None
            and now - vc.ready_at >= config.preemption_patience_cycles
        ):
            target = self._try_preempt(next_station, best_priority, now)
        if target is not None:
            self._transfer(vc, packet, port, segment, target, now)
            return port.busy_until if n_candidates > 1 else max(
                port.busy_until, wait_until
            )
        if n_candidates > 1:
            # Slow path: the winner is blocked, so rank order matters.
            # Nothing was mutated above (a successful preemption always
            # transfers and returns), so re-scoring reproduces the same
            # values; collect ready entries into the reusable ranking
            # buffer, checking along the way whether anyone can advance
            # at all.  When nobody can, rank order is irrelevant and
            # the sort is skipped.
            ranked = self._ranked
            del ranked[:]
            may_advance = False
            policy_compliant = self.policy.is_rate_compliant
            for _, cvc in requests:
                cpacket = cvc.packet
                if cvc.ready_at <= now and cvc.station.tx_busy_until <= now:
                    cstation = cvc.station
                    if cstation.qos:
                        cpriority = policy_priority(cstation, cpacket, now)
                    else:
                        cpriority = cpacket.carried_priority
                    ranked.append(
                        (cpriority, cpacket.created_at, cpacket.pid, cvc)
                    )
                    if may_advance or cvc is best_vc:
                        continue
                    nsi = cpacket.segments[cpacket.hop_index][3]
                    if nsi < 0:
                        may_advance = True  # ejection always advances
                        continue
                    if nsi in memo:
                        ff = memo[nsi]
                    else:
                        ff = stations[nsi].free_vc(allow_reserved=True)
                        memo[nsi] = ff
                    if ff is None:
                        continue
                    if not (reserved_vc and ff.reserved):
                        may_advance = True
                        continue
                    # Reserved first-free: a second (non-reserved) free
                    # VC admits anyone, otherwise compliance decides.
                    if nsi in memo2:
                        sf = memo2[nsi]
                    else:
                        sf = stations[nsi].free_vc(allow_reserved=False)
                        memo2[nsi] = sf
                    if sf is not None or policy_compliant(
                        cvc.station, cpacket, now
                    ):
                        may_advance = True
            if may_advance:
                ranked.sort()
                for priority, _, _, cvc in ranked:
                    if cvc is best_vc:
                        continue  # its attempt (with preemption) failed
                    cpacket = cvc.packet
                    segment = cpacket.segments[cpacket.hop_index]
                    nsi = segment[3]
                    if nsi < 0:
                        self._transfer(cvc, cpacket, port, segment, None, now)
                        return port.busy_until
                    next_station = stations[nsi]
                    if nsi in memo:
                        ff = memo[nsi]
                    else:
                        ff = next_station.free_vc(allow_reserved=True)
                        memo[nsi] = ff
                    if ff is None:
                        continue
                    if reserved_vc and ff.reserved:
                        if policy_compliant(cvc.station, cpacket, now):
                            target = ff
                        else:
                            if nsi in memo2:
                                target = memo2[nsi]
                            else:
                                target = next_station.free_vc(
                                    allow_reserved=False
                                )
                                memo2[nsi] = target
                        if target is None:
                            continue
                    else:
                        target = ff
                    self._transfer(cvc, cpacket, port, segment, target, now)
                    return port.busy_until
        # Ready candidates exist but none could advance (downstream VCs
        # full): patience counters and compliance windows may change the
        # outcome next cycle, so the port must be revisited every cycle.
        if self._probes is not None:
            self._probes.arb_block(now, port.index, n_candidates)
        return now + 1

    def _try_preempt(
        self, station: Station, candidate_priority: float, now: int
    ) -> VirtualChannel | None:
        """Resolve priority inversion: discard the worst resident packet."""
        if not (self.config.preemption_enabled and self._caps.preemption):
            return None
        victim_vc: VirtualChannel | None = None
        victim_priority = candidate_priority
        policy = self.policy
        may_preempt = policy.may_preempt
        table = self._prio_table
        victim_scan = self._victim_scan
        del victim_scan[:]
        qos = station.qos
        stamp_carried = self._has_nonqos
        if qos and table is not None:
            prio_values = table.prio_values
            prio_stamps = table.prio_stamps
            prio_epoch = table.epoch
            versions = table.versions
        for vc in station.vcs:
            packet = vc.packet
            if packet is None or vc.departing or vc.reserved or packet.protected:
                continue
            if qos:
                if table is not None:
                    idx = vc.prio_idx
                    if prio_stamps[idx] == prio_epoch:
                        priority = prio_values[idx]
                    else:
                        priority = policy.priority(station, packet, now)
                    # Record what this verdict depended on so a failed
                    # scan can be revalidated cheaply next cycle.
                    victim_scan.append((idx, versions[idx]))
                else:
                    priority = policy.priority(station, packet, now)
                if stamp_carried:
                    packet.carried_priority = priority
            else:
                priority = packet.carried_priority
            if may_preempt(candidate_priority, priority) and (
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
                # A refund improves a priority: drop the node's blocked
                # verdicts now, and reposition the flow's ranked slots
                # once the preempting pass has transferred.
                self._refund_gen[source_station.node] += 1
                self._refunded = self._injectors[packet.flow_id]
        if vc.arriving_until > now and vc.inbound_port is not None:
            # The victim's tail is still on the wire: kill the transfer.
            vc.inbound_port.busy_until = now
        vc.clear()
        self._station_gen[vc.station.index] += 1
        self._occupied_vcs -= 1
        owner = vc.owner
        if owner is not None and (
            owner.replay
            or (
                owner.pending
                and owner.outstanding < self.config.window_packets
            )
        ):
            self._arm(owner.flow_id)
        # The freed VC may unblock a transfer or an injection placement
        # on the very next cycle, before any scheduled event fires.
        self._hold = True
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
        target.prio_idx = next_station.node * self._n_flows + packet.flow_id
        self._station_gen[next_station_index] += 1
        self._occupied_vcs += 1
        target.epoch += 1
        next_port = self.fabric.ports[packet.current_segment()[0]]
        next_port.requests.append((target.epoch, target))
        # The receiving port may already have been arbitrated this cycle
        # (or be asleep): schedule it for the new request's earliest
        # eligibility so the clock cannot skip past it.
        self._wake_port(next_port.index, target.ready_at)

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
