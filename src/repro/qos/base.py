"""QoS policy interface and the no-QoS reference policy.

The engine delegates every QoS decision to a policy object:

* packet priority at a station (lower value = served first);
* bandwidth accounting when a packet is forwarded;
* frame rollover;
* preemption-eligibility rules and reserved-VC admission;
* whether a packet is preemption-protected at creation (reserved quota).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.network.fabric import Station
    from repro.network.packet import FlowSpec, Packet


@dataclass(frozen=True)
class PolicyCapabilities:
    """What a policy asks of the engine, declared up front.

    The engines read these flags — never ``isinstance`` checks — to
    decide which machinery to arm, and the policy registry carries the
    same object on each entry so callers can inspect a policy's demands
    without instantiating it.

    Attributes
    ----------
    preemption:
        The engine may resolve priority inversion by discarding a
        lower-priority packet (PVC's defining mechanism).
    overflow_vcs:
        Stations may grow extra VCs on demand (per-flow queuing).
    compliance_cached:
        The flow table's ``comp_thresholds`` cache (see
        :class:`~repro.qos.flow_table.FlowTable`) answers
        :meth:`QosPolicy.is_rate_compliant` exactly, letting the engine
        skip the method call when the cached boundary is fresh.
    throttles_injection:
        The policy implements :meth:`QosPolicy.injection_release` to
        hold packets at the source (GSF's frame windows); the engines
        only consult the hook when this is declared.
    """

    preemption: bool = False
    overflow_vcs: bool = False
    compliance_cached: bool = False
    throttles_injection: bool = False


class QosPolicy:
    """Interface implemented by PVC, GSF, the per-flow baseline, no-QoS."""

    #: Declared engine requirements; every concrete policy overrides
    #: this with its own :class:`PolicyCapabilities`.
    capabilities = PolicyCapabilities()

    def bind(self, n_nodes: int, flows: list[FlowSpec], config) -> None:
        """Size internal state once the engine knows the flow set."""

    def priority(self, station: Station, packet: Packet, now: int) -> float:
        """Scheduling key at a QoS station; lower is served first."""
        raise NotImplementedError

    def priority_cache(self):
        """The :class:`~repro.qos.flow_table.FlowTable` hosting this
        policy's incremental priority cache, or ``None``.

        Returning a table puts the policy on the engine's ranked
        arbitration path (persistent per-port rankings plus cached
        blocked verdicts), which is exact only when:

        * at a QoS station, :meth:`priority` is either pure (station
          node, flow) table state (PVC) or a per-packet key fixed
          before the packet is placed (GSF's frame tag) — never a
          function of the current cycle;
        * a priority can *improve* only at an epoch flush (``flush``)
          or at a refund or weight fence; any other change may only
          worsen it and must void the entry (``charge``, which also
          bumps its ``versions`` counter);
        * every False answer from :meth:`is_rate_compliant` leaves in
          ``comp_thresholds`` a cycle no later than the one at which
          the answer can next become True.

        The engine reads ``prio_values``/``prio_stamps`` inline,
        falling back to :meth:`priority` whenever the stamp is not
        current.  Policies whose priority depends on the cycle (no-QoS)
        must return ``None`` and take the single-scan path; call this
        after :meth:`bind`.
        """
        return None

    def set_weight(self, flow_id: int, weight: float) -> None:
        """Re-program one flow's service weight mid-run.

        Models the paper's "programming memory-mapped registers" knob,
        driven by multi-phase scenario schedules.  Policies that key
        priorities off weights must invalidate every cached value the
        change could alter; weight-less policies (no-QoS) ignore it.
        The engine pairs each call with a rank-rebuild fence, because a
        raised weight can *improve* priorities.
        """

    def on_forward(self, station: Station, packet: Packet, now: int) -> None:
        """Bandwidth accounting when ``packet`` departs ``station``."""

    def on_refund(self, station: Station, packet: Packet, now: int) -> None:
        """Reverse bandwidth accounting for a preempted packet's hops.

        Discarded flits never delivered useful bandwidth; billing them
        anyway would spiral a preempted flow's priority downward and
        invite further preemptions of the same flow.
        """

    def on_frame(self, now: int) -> None:
        """Frame rollover (PVC flushes all counters)."""

    def on_packet_created(self, flow_id: int, size: int, now: int) -> bool:
        """Charge injection quota; returns True if preemption-protected."""
        return False

    def injection_release(self, packet: Packet, ready_at: int) -> int:
        """Earliest cycle the packet may contend for its first hop.

        Called exactly once per injection placement, after the packet
        enters its staging VC with the engine-computed ``ready_at``
        (injection cycle + VC-allocation wait).  A policy that throttles
        sources — GSF holding a packet for its frame window — returns a
        later cycle; everything else returns ``ready_at`` unchanged, and
        the engines behave exactly as before the hook existed.
        """
        return ready_at

    def is_rate_compliant(self, station: Station, packet: Packet, now: int) -> bool:
        """Whether the packet's flow qualifies for the reserved VC."""
        return False

    def may_preempt(self, candidate_priority: float, victim_priority: float) -> bool:
        """Whether a candidate at that priority may discard the victim."""
        return False


class NoQosPolicy(QosPolicy):
    """Locally fair arbitration, no flow state, no preemption.

    Models the unprotected bulk of the chip.  Each output port picks a
    pseudo-random ready packet every cycle — fair *locally*, but on a
    chain toward a hotspot each merge point halves the bandwidth left
    for upstream sources, so distant sources are starved (the
    motivating observation of prior NoC QoS work cited in Section 5.3).
    The test suite checks exactly this geometric decay.
    """

    capabilities = PolicyCapabilities()

    def priority(self, station: Station, packet: Packet, now: int) -> float:
        # Deterministic avalanche hash of (input port, cycle): a
        # stateless stand-in for per-port round-robin arbitration.  All
        # VCs of a station share the draw (switch allocation grants
        # ports, not VCs); ties fall back to oldest-first within the
        # port.  The mix must be non-linear in the cycle so any two
        # ports win against each other 50/50 over time.
        value = (station.index * 0x9E3779B1) ^ (now * 0x85EBCA6B)
        value &= 0xFFFFFFFF
        value = ((value ^ (value >> 13)) * 0xC2B2AE35) & 0xFFFFFFFF
        return float(value ^ (value >> 16))
