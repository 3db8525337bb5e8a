"""Globally-Synchronized Frames (GSF) — the paper's main comparison point.

GSF (Lee, Ng, Asanović, ISCA 2008) provides bandwidth guarantees
through *frame reservation* rather than PVC's preempt-and-retransmit:
time is divided into globally synchronized frame windows, every source
holds a per-frame injection budget sized to its provisioned share, and
a source that exhausts the active frame's budget is throttled — its
packets are charged to future frames and wait at the source until that
frame's window opens.  In-network arbitration then simply drains
earlier frames first: a packet's priority is the frame it was charged
to, so bandwidth within a frame is divided according to the
reservations and nothing is ever dropped.

This implementation expresses the scheme entirely through the
:class:`~repro.qos.base.QosPolicy` contract, so it runs unmodified in
both the optimized and the golden engine:

* **frame clock** — frames are the engine's existing ``frame_cycles``
  windows (``on_frame`` fires at every boundary in both engines), so
  the "global synchronization" is the simulated clock itself; frame
  ``k`` spans cycles ``[k*F, (k+1)*F)``.
* **budget charging** — :meth:`on_packet_created` charges each packet,
  in global creation order, to the earliest frame (no earlier than the
  active one) whose remaining budget fits it.  The per-flow budget is
  ``share × frame_cycles × weight``, with ``share`` the same
  provisioned reservation PVC uses for its quota — the two policies are
  provisioned identically, which is what makes the head-to-head fair.
* **source throttling** — :meth:`injection_release` defers a packet's
  arbitration eligibility to the start of its charged frame.  A source
  that burns its active-frame budget emits nothing further until the
  next frame boundary (the throttling the paper contrasts with PVC's
  preemption).
* **frame-rollover reclamation** — budgets do not carry across frames:
  when the active frame passes a flow's charge pointer, the pointer
  snaps forward and the stale remainder is reclaimed lazily (no
  per-boundary scan, so both engines see identical state regardless of
  how their clocks advance).

Never preempting, GSF pays instead with *frame-synchronization
latency*: a throttled packet waits out the remainder of the current
frame even when the network is idle.  The ``pvc_vs_gsf`` experiment
measures exactly this trade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.qos.base import PolicyCapabilities, QosPolicy
from repro.qos.flow_table import FlowTable
from repro.qos.pvc import PROVISIONED_INJECTORS

if TYPE_CHECKING:
    from repro.network.fabric import Station
    from repro.network.packet import FlowSpec, Packet


class GsfPolicy(QosPolicy):
    """Globally-Synchronized Frames policy bound to one simulation."""

    #: No preemption (nothing is ever discarded), no per-flow queues,
    #: compliance computed directly (one integer compare) — but the
    #: source *is* throttled: the engines route every injection
    #: placement through :meth:`injection_release`.
    capabilities = PolicyCapabilities(
        preemption=False,
        overflow_vcs=False,
        compliance_cached=False,
        throttles_injection=True,
    )

    def __init__(self) -> None:
        # Arbitration bookkeeping for the engine's ranked path, never
        # charged: GSF routers hold no per-flow state (see
        # `priority_cache`).
        self.table: FlowTable | None = None
        self._frame = 0
        self._share = 0.0
        self._budgets: list[float] = []
        # Per-flow charge pointer: the frame the flow is currently
        # charging into, and the flits already charged to it.  Frames
        # earlier than the active one are reclaimed lazily on the next
        # charge or compliance read.
        self._charge_frame: list[int] = []
        self._charge_used: list[float] = []
        # Packet ids are assigned in global creation order and
        # ``on_packet_created`` is called exactly once per packet,
        # immediately after the id is assigned — so the Nth call is
        # packet N-1.  The charged frame travels pid-keyed from
        # creation to injection placement, where it is stamped onto
        # the packet and the entry dropped.
        self._created = 0
        self._frame_of_pid: dict[int, int] = {}
        # Diagnostics: placements whose release was actually deferred.
        self._deferrals = 0

    def bind(self, n_nodes: int, flows: list[FlowSpec], config) -> None:
        """Size frame budgets for the bound flow population.

        Every per-run field is reset, so one instance re-bound to a
        fresh simulator reproduces a fresh policy's run.
        """
        self.table = FlowTable(n_nodes, len(flows))
        self._frame = config.frame_cycles
        share = config.reserved_quota_share
        if share is None:
            share = 1.0 / PROVISIONED_INJECTORS
        self._share = share
        self._budgets = [share * self._frame * flow.weight for flow in flows]
        self._charge_frame = [0] * len(flows)
        self._charge_used = [0.0] * len(flows)
        self._created = 0
        self._frame_of_pid = {}
        self._deferrals = 0

    # -- priority ----------------------------------------------------

    def priority(self, station: Station, packet: Packet, now: int) -> float:
        """The packet's charged frame: earlier frames drain first.

        Within a frame, the engine's tiebreak (creation cycle, then
        packet id) provides oldest-first service; across frames the
        reservation schedule is absolute.
        """
        return float(packet.frame_tag)

    def priority_cache(self) -> FlowTable:
        """An uncharged table that puts GSF on the engine's ranked path.

        The frame tag is fixed before the packet's first request and
        never changes while it is resident, so the ranked path's
        "priorities only worsen between fences" invariant holds
        trivially: the table's priority stamps stay invalid (the engine
        reads the tag through :meth:`priority`), its ``versions`` never
        move, and the :meth:`on_frame` flush is the fence that rebuilds
        rankings when a boundary clears ``carried_priority`` at stations
        without flow state.  It is simulator bookkeeping, not modelled
        router state.
        """
        return self.table

    def set_weight(self, flow_id: int, weight: float) -> None:
        """Re-program a flow's reservation: rescale its frame budget.

        Already-charged packets keep their frames (the reservation was
        made); only future charges see the new budget.
        """
        if weight <= 0:
            raise ConfigurationError("flow weight must be positive")
        self._budgets[flow_id] = self._share * self._frame * weight

    def on_frame(self, now: int) -> None:
        """Frame rollover: advance the arbitration table's epoch.

        Budget reclamation is lazy — the charge pointer snaps forward
        the next time the flow charges or is compliance-checked — so
        the two engines need not agree on when boundary cycles are
        visited.  The flush only fences the engine's rankings.
        """
        self.table.flush(now)

    # -- frame budgets -----------------------------------------------

    def on_packet_created(self, flow_id: int, size: int, now: int) -> bool:
        """Charge the packet to the earliest frame with budget room.

        Returns True (preemption-protected) when the packet fits the
        active frame — moot for arbitration since GSF never preempts,
        but it keeps the CREATE trace line meaningful: an unprotected
        packet is one that will be throttled at the source.
        """
        frame = self._charge_frame[flow_id]
        used = self._charge_used[flow_id]
        active = now // self._frame
        if frame < active:
            frame = active
            used = 0.0
        budget = self._budgets[flow_id]
        if used > 0.0 and used + size > budget:
            # No room left in this window: the whole packet rolls to
            # the next frame.  A packet larger than the budget charges
            # alone into an empty frame (first clause), so every frame
            # admits at least one packet and charging always advances.
            frame += 1
            used = 0.0
        used += size
        self._charge_frame[flow_id] = frame
        self._charge_used[flow_id] = used
        self._frame_of_pid[self._created] = frame
        self._created += 1
        return frame == active

    def injection_release(self, packet: Packet, ready_at: int) -> int:
        """Hold the packet at the source until its frame window opens."""
        frame = self._frame_of_pid.pop(packet.pid)
        packet.frame_tag = frame
        window_start = frame * self._frame
        if window_start > ready_at:
            self._deferrals += 1
            return window_start
        return ready_at

    def is_rate_compliant(self, station: Station, packet: Packet, now: int) -> bool:
        """Flow is within its reservation: not charging a future frame.

        A flow whose charge pointer has run ahead of the active frame is
        over-subscribed and loses reserved-VC access until the clock
        catches up.  A False answer records that catch-up cycle as the
        (router, flow) compliance boundary the engine's blocked-verdict
        cache gates on; later charges only move the pointer forward, so
        the recorded boundary is never late.  Policy state is only read
        (the engines call this different numbers of times).
        """
        flow_id = packet.flow_id
        frame = self._charge_frame[flow_id]
        if frame <= now // self._frame:
            return True
        table = self.table
        table.comp_thresholds[station.node * table.n_flows + flow_id] = (
            frame * self._frame
        )
        return False

    # -- diagnostics ---------------------------------------------------

    def budget_flits(self, flow_id: int) -> float:
        """The flow's per-frame injection budget in flits."""
        return self._budgets[flow_id]

    def charged_frame(self, flow_id: int) -> int:
        """The frame the flow's next packet would charge into (or later)."""
        return self._charge_frame[flow_id]

    def deferral_count(self) -> int:
        """Placements throttled to a future frame window so far."""
        return self._deferrals
