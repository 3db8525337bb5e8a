"""Idealised per-flow-queued QoS baseline (no preemption).

Historical network QoS schemes give every flow a dedicated queue at each
router, so priority inversion cannot occur and nothing is ever
discarded — at the cost of buffer capacity proportional to the flow
population.  Figure 6 measures PVC's preemption-induced slowdown against
exactly this reference: "preemption-free execution in the same topology
with per-flow queuing".

This policy keeps PVC's virtual-clock priority function (so bandwidth
allocation is identical in intent) but:

* never preempts;
* lets every station grow a dedicated VC per flow on demand
  (``allow_overflow_vcs``), emulating per-flow buffering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.qos.base import PolicyCapabilities, QosPolicy
from repro.qos.flow_table import FlowTable

if TYPE_CHECKING:
    from repro.network.fabric import Station
    from repro.network.packet import FlowSpec, Packet


class PerFlowQueuedPolicy(QosPolicy):
    """Virtual-clock scheduling over per-flow queues; preemption-free."""

    capabilities = PolicyCapabilities(preemption=False, overflow_vcs=True)

    def __init__(self) -> None:
        self.table: FlowTable | None = None
        self._weights: list[float] = []

    def bind(self, n_nodes: int, flows: list[FlowSpec], config) -> None:
        """Size flow tables for the bound flow population."""
        self.table = FlowTable(n_nodes, len(flows))
        self._weights = [flow.weight for flow in flows]

    def priority(self, station: Station, packet: Packet, now: int) -> float:
        """Same rate-scaled bandwidth priority as PVC (and same cache)."""
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
        """Pure (router, flow) table state, like PVC — cacheable."""
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

    def on_frame(self, now: int) -> None:
        """Flush counters every frame, mirroring PVC's granularity."""
        self.table.flush(now)

    def is_rate_compliant(self, station: Station, packet: Packet, now: int) -> bool:
        """Reserved-VC admission is moot with per-flow queues; allow all."""
        return True
