"""Shared-region column topologies (Section 3.2 of the paper).

Five configurations, all with 16-byte links and PVC QoS:

========  =====================================================  ==========
name      structure                                              bisection
========  =====================================================  ==========
mesh_x1   baseline 1-D mesh, 1 channel per direction             1x
mesh_x2   2-way replicated channels, monolithic crossbar         2x
mesh_x4   4-way replicated channels, monolithic crossbar         4x
mecs      point-to-multipoint channel per node per direction     4x
dps       Destination Partitioned Subnets — a dedicated          4x
          lightweight subnet per destination node (this paper's
          new topology)
========  =====================================================  ==========
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".base": ("COLUMN_NODES", "ColumnTopology"),
        ".dps": ("DpsTopology",),
        ".flattened_butterfly": ("FlattenedButterflyTopology",),
        ".mecs": ("MecsTopology",),
        ".mesh": ("MeshTopology",),
        ".registry": ("EXTENDED_TOPOLOGY_NAMES", "TOPOLOGY_NAMES", "get_topology"),
    },
)
