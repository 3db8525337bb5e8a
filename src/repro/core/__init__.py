"""Chip-level topology-aware QoS architecture (Sections 1-2 of the paper).

This package models the paper's *system proposal* around the shared
region that :mod:`repro.network` simulates at cycle level:

* a 256-tile CMP reduced to an 8x8 grid of network nodes by 4-way
  concentration, interconnected by MECS;
* one or more *shared columns* holding memory controllers with full
  hardware QoS support (the rest of the chip has none);
* *domains* — convex regions of nodes allocated to an application or
  virtual machine so intra-domain cache traffic never leaves them;
* the hypervisor services the paper requires from the OS: friendly
  co-scheduling of threads onto nodes, convex domain allocation, and
  programming flow rates into the QoS routers' memory-mapped registers;
* chip-level MECS routing (single-hop per dimension) with inter-VM
  transfers forced through the QoS-protected shared columns, and an
  isolation verifier that proves the physical-isolation property;
* a QoS-aware memory-controller endpoint model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".allocator": ("DomainAllocator",),
        ".cache": (
            "CacheOrganisation",
            "domain_cache_analysis",
            "miss_ratio",
            "shared_wins",
        ),
        ".chip": ("Chip", "ChipConfig", "NodeKind"),
        ".domain": ("Domain", "is_convex", "xy_path"),
        ".hypervisor": ("Hypervisor", "VirtualMachine"),
        ".isolation": ("IsolationViolation", "verify_isolation"),
        ".memctrl": ("MemoryController",),
        ".routing": (
            "RouterPath",
            "route_inter_vm",
            "route_intra_domain",
            "route_to_shared",
        ),
        ".system": ("TopologyAwareSystem",),
    },
)
