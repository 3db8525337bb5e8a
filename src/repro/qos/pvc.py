"""Preemptive Virtual Clock (PVC) — the paper's QoS mechanism.

PVC (Grot, Keckler, Mutlu, MICRO 2009) avoids per-flow queuing.  Routers
track each flow's bandwidth consumption; consumption scaled by the
flow's assigned rate yields packet priority (lower = served first).
Counters are flushed every *frame* (50K cycles in the paper), bounding
how long past consumption depresses a flow's priority.

Because flows share VCs, a low-priority packet can block a
higher-priority one ("priority inversion").  PVC resolves inversion by
*preempting* (discarding) the lower-priority packet; the source learns
of the discard over a dedicated ACK network and retransmits from its
outstanding-packet window.

Preemption throttles built in (Section 5.3):

* **Reserved quota** — the first N flits a source injects in each frame
  are non-preemptable, N being the source's provisioned share of a
  frame.  The share reflects the full provisioned injector population
  (64 in the shared column), which is why adversarial workloads that
  activate only a few sources exhaust it "early in the frame".
* **Reserved VC** — one VC per network port only admits rate-compliant
  flows, giving well-behaved traffic a preemption-immune path.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.qos.base import PolicyCapabilities, QosPolicy
from repro.qos.flow_table import FlowTable

if TYPE_CHECKING:
    from repro.network.fabric import Station
    from repro.network.packet import FlowSpec, Packet

#: Provisioned injector population of the shared column: 8 routers x
#: (1 terminal + 7 row inputs).  The reserved quota is sized for this
#: population regardless of how many injectors a workload activates.
PROVISIONED_INJECTORS = 64

#: Compliance slack in flits: a flow may run this far ahead of its
#: provisioned rate before losing reserved-VC access.
_COMPLIANCE_SLACK_FLITS = 4.0

#: Sentinel compliance boundary for a zero provisioned rate: the
#: allowance never grows, so an over-quota packet never complies.
_NEVER_COMPLIANT = 1 << 62


class PvcPolicy(QosPolicy):
    """Preemptive Virtual Clock policy bound to one simulation."""

    #: Preemption is PVC's defining mechanism; the flow table's
    #: compliance-boundary cache is authoritative for this policy, so
    #: the engine may answer `is_rate_compliant` from a fresh
    #: `comp_thresholds` entry without calling the method.
    capabilities = PolicyCapabilities(
        preemption=True, overflow_vcs=False, compliance_cached=True
    )

    def __init__(self) -> None:
        self.table: FlowTable | None = None
        self._weights: list[float] = []
        self._quota_flits = 0.0
        self._frame_injected: list[int] = []
        self._zero_quota: list[int] = []
        self._compliance_rate = 0.0

    def bind(self, n_nodes: int, flows: list[FlowSpec], config) -> None:
        """Size flow tables and quota for the bound flow population."""
        self.table = FlowTable(n_nodes, len(flows))
        self._weights = [flow.weight for flow in flows]
        share = config.reserved_quota_share
        if share is None:
            share = 1.0 / PROVISIONED_INJECTORS
        self._quota_flits = share * config.frame_cycles
        self._compliance_rate = share
        self._frame_injected = [0] * len(flows)
        self._zero_quota = [0] * len(flows)

    # -- priority ----------------------------------------------------

    def priority(self, station: Station, packet: Packet, now: int) -> float:
        """Bandwidth consumed at this router, scaled by assigned rate.

        Cached per (router, flow) in the flow table; the cache entry is
        voided by any charge/refund at that router and by frame flushes,
        so a hit returns exactly what recomputation would.
        """
        table = self.table
        flow_id = packet.flow_id
        idx = station.node * table.n_flows + flow_id
        if table.prio_stamps[idx] == table.epoch:
            return table.prio_values[idx]
        value = table.consumed(station.node, flow_id) / self._weights[flow_id]
        table.prio_values[idx] = value
        table.prio_stamps[idx] = table.epoch
        return value

    def priority_cache(self) -> FlowTable:
        """PVC priority is pure (router, flow) table state — cacheable."""
        return self.table

    def set_weight(self, flow_id: int, weight: float) -> None:
        """Re-program a flow's weight; void its caches at every router."""
        if weight <= 0:
            raise ConfigurationError("flow weight must be positive")
        self._weights[flow_id] = weight
        self.table.invalidate_flow(flow_id)

    def on_forward(self, station: Station, packet: Packet, now: int) -> None:
        """Charge the flow's bandwidth counter at this router."""
        self.table.charge(station.node, packet.flow_id, packet.size)

    def on_refund(self, station: Station, packet: Packet, now: int) -> None:
        """Un-charge a preempted packet's flits at a router it crossed.

        Clamped at zero: if a frame flush landed between the charge and
        the refund, the counter is already clear.
        """
        consumed = self.table.consumed(station.node, packet.flow_id)
        self.table.charge(
            station.node, packet.flow_id, -min(packet.size, consumed)
        )

    def on_frame(self, now: int) -> None:
        """Flush all counters and reset per-frame injection quotas."""
        self.table.flush(now)
        self._frame_injected[:] = self._zero_quota

    # -- preemption throttles ----------------------------------------

    def on_packet_created(self, flow_id: int, size: int, now: int) -> bool:
        """Charge the reserved quota; under-quota packets are protected."""
        injected = self._frame_injected[flow_id] + size
        self._frame_injected[flow_id] = injected
        return injected <= self._quota_flits

    def is_rate_compliant(self, station: Station, packet: Packet, now: int) -> bool:
        """Flow is within its provisioned rate at this router.

        The allowance grows linearly within a frame while the consumed
        count only moves on charges, so the predicate is monotonic in
        the cycle: the exact boundary cycle is computed once and cached
        in the flow table (voided by charges and flushes, like the
        priority cache), turning the per-cycle re-evaluation of a
        blocked head packet into one integer compare.
        """
        table = self.table
        epoch = table.epoch
        idx = station.node * table.n_flows + packet.flow_id
        size = packet.size
        if table.comp_stamps[idx] == epoch and table.comp_sizes[idx] == size:
            return now >= table.comp_thresholds[idx]
        consumed = table._counters[idx] if table._stamps[idx] == epoch else 0
        rate = self._compliance_rate
        frame_start = table.frame_start
        total = consumed + size
        if rate > 0.0:
            # Pin the smallest cycle satisfying the original float
            # predicate — in its ORIGINAL association,
            # `total <= rate * elapsed + slack`, so the cached boundary
            # reproduces the pre-cache comparison bit for bit (the
            # seeding division is only a starting guess; float
            # addition/multiplication are monotonic in `elapsed`, so
            # the two adjustment loops land on the exact boundary).
            threshold = frame_start + int(
                (total - _COMPLIANCE_SLACK_FLITS) / rate
            )
            while (
                total
                <= rate * (threshold - 1 - frame_start)
                + _COMPLIANCE_SLACK_FLITS
            ):
                threshold -= 1
            while (
                total
                > rate * (threshold - frame_start) + _COMPLIANCE_SLACK_FLITS
            ):
                threshold += 1
        else:
            threshold = (
                frame_start
                if total <= _COMPLIANCE_SLACK_FLITS
                else _NEVER_COMPLIANT
            )
        table.comp_thresholds[idx] = threshold
        table.comp_sizes[idx] = size
        table.comp_stamps[idx] = epoch
        return now >= threshold

    def may_preempt(self, candidate_priority: float, victim_priority: float) -> bool:
        """Strict priority inversion only: the victim must be worse."""
        return victim_priority > candidate_priority and not math.isclose(
            victim_priority, candidate_priority, rel_tol=1e-12, abs_tol=1e-12
        )

    # -- diagnostics ---------------------------------------------------

    def quota_flits(self) -> float:
        """Per-flow non-preemptable flit budget per frame."""
        return self._quota_flits

    def frame_injected(self, flow_id: int) -> int:
        """Flits the flow has injected in the current frame."""
        return self._frame_injected[flow_id]
