"""Cycle-level network-on-chip simulator for the QoS-enabled shared region.

The engine models one shared-resource column of 8 routers (Section 4 of
the paper): virtual cut-through flow control, per-port virtual channels,
topology-specific pipeline depths, 1-cycle wire delay per tile spanned,
16-byte links, and a pluggable QoS policy (PVC or an idealised per-flow
queued baseline).

The engine itself is topology-agnostic; topologies compile to a
:class:`~repro.network.fabric.FabricBuild` of stations (input buffer
banks), output ports (serialised link/ejection resources), and per-packet
routes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".config": ("SimulationConfig",),
        ".engine": ("ColumnSimulator",),
        ".fabric": ("FabricBuild", "OutputPort", "Station", "VirtualChannel"),
        ".metrics": ("NetworkStats",),
        ".packet": ("FlowSpec", "Packet"),
        ".trace": ("TraceEvent", "TraceKind", "TraceRecorder"),
    },
)
