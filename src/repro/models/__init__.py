"""Analytical area and energy models (Orion/CACTI-flavoured).

The paper evaluates router cost with Orion 2.0 (crossbars, modified for
the asymmetric MECS switch) and CACTI 6.0 (SRAM input buffers and flow
state tables) at 32 nm / 0.9 V.  Neither tool is available here, so this
package provides analytical stand-ins with constants calibrated so the
*component-level shape* of Figure 3 (area) and Figure 7 (energy) holds:
MECS is buffer-dominated, mesh x4 crossbar-dominated, the MECS switch
stage is the most energy-hungry because of its long input lines, and DPS
intermediate hops cost only a buffer access.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".area": ("AreaBreakdown", "RouterAreaModel"),
        ".energy": ("EnergyBreakdown", "HopType", "RouterEnergyModel"),
        ".geometry": ("BufferBank", "RouterGeometry"),
        ".technology": ("TechnologyParameters",),
    },
)
