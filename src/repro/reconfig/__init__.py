"""repro.reconfig — region-granular partial reconfiguration.

PRGA-style region grids: one shared fabric carved into K equal column-band
regions with per-region configuration chains.  :class:`RegionPlan` sizes
the grid for a design set, :class:`RegionAllocator` places designs on
contiguous spans (first fit, LRU eviction, pin counts), and the serve
layer hot-swaps individual spans through the programming engine's timed
transfer (:func:`~repro.core.control_hub.transfer_bitstream`) — paying only
for the changed regions' bits.  See ``docs/reconfig.md``.

The ``reconfig`` experiment lives in :mod:`repro.reconfig.experiments`
(imported by the registry, not here, mirroring :mod:`repro.chaos`).
"""

from repro.reconfig.placement import (
    Placement,
    PlacementError,
    RegionAllocator,
)
from repro.reconfig.plan import RegionPlan, minimal_region_capacity

__all__ = [
    "Placement",
    "PlacementError",
    "RegionAllocator",
    "RegionPlan",
    "minimal_region_capacity",
]
