"""Region-grid provisioning: size one shared fabric for a design set.

Whole-fabric serving gives every accelerator its own minimal device and
reprograms all of it on a switch.  Region-granular serving instead carves
**one shared fabric** into K equal column-band regions and co-locates
designs on contiguous spans.  The sizing question is: how big must a
region be so the design set actually fits?

:meth:`RegionPlan.build` answers it exactly: the minimal per-region tile
capacity ``c*`` such that the sum of per-design span counts
``Σ ceil(tiles_i / c)`` fits in K regions.  That sum is monotone
non-increasing in ``c``, so a binary search finds ``c*``; when even one
region per design cannot fit (more designs than regions) the fallback is
``ceil(max_tiles / K)`` — the whole grid can always hold the biggest
design, and the rest hot-swap through LRU eviction.  A
``fabric_scale < 1`` deliberately under-provisions (capacity pressure →
eviction/fragmentation, the experiment axis), floored so the widest
design still spans at most K regions.

The resulting grid is deterministic in (design set, K, scale): equal
capacities, near-square geometry, and one regioned
:class:`~repro.fpga.bitstream.Bitstream` per design whose
:meth:`~repro.fpga.bitstream.Bitstream.for_regions` slices are what a
hot swap actually transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.fpga.bitstream import Bitstream
from repro.fpga.fabric import FabricInstance, FabricSpec
from repro.reconfig.placement import PlacementError


def minimal_region_capacity(tiles: Dict[str, int], regions: int) -> int:
    """Smallest per-region tile capacity fitting the whole design set.

    Returns the minimal ``c`` with ``Σ ceil(tiles_i / c) <= regions``, or
    ``ceil(max_tiles / regions)`` when no ``c`` achieves it (more designs
    than regions) — the grid then holds any *single* design and the rest
    rotate through eviction.
    """
    if not tiles:
        raise PlacementError("cannot provision a region grid for zero designs")
    if regions < 1:
        raise PlacementError(f"need at least one region, got {regions}")
    if any(count < 1 for count in tiles.values()):
        raise PlacementError(f"tile counts must be positive: {tiles}")
    biggest = max(tiles.values())

    def spans(capacity: int) -> int:
        return sum(-(-count // capacity) for count in tiles.values())

    if spans(biggest) > regions:
        return -(-biggest // regions)
    low, high = 1, biggest
    while low < high:
        mid = (low + high) // 2
        if spans(mid) <= regions:
            high = mid
        else:
            low = mid + 1
    return low


@dataclass(frozen=True)
class RegionPlan:
    """One shared fabric carved into K equal regions, plus per-design images."""

    regions: int
    fabric: FabricInstance
    #: Tiles per region (equal by construction).
    capacities: Tuple[int, ...]
    #: Regioned full-fabric image per design (``for_regions`` cuts partials).
    images: Dict[str, Bitstream]
    #: Tile footprint per design (what the allocator bins).
    tiles: Dict[str, int]
    fabric_scale: float

    @property
    def region_capacity(self) -> int:
        return self.capacities[0]

    @classmethod
    def build(cls, accelerators: Dict[str, "object"], regions: int,
              fabric_scale: float = 1.0,
              spec: FabricSpec = None) -> "RegionPlan":
        """Provision the shared grid for materialized accelerators.

        ``accelerators`` maps name → an object with ``tiles_needed`` and
        ``spec.design`` (a :class:`~repro.serve.catalog.ServedAccelerator`);
        keeping the contract structural avoids a serve ↔ reconfig import
        cycle.
        """
        if regions < 2:
            raise PlacementError(
                f"a region plan needs >= 2 regions, got {regions} "
                "(regions=1 is the whole-fabric path)")
        if fabric_scale <= 0:
            raise PlacementError(
                f"fabric_scale must be positive, got {fabric_scale}")
        spec = spec or FabricSpec()
        tiles = {name: acc.tiles_needed for name, acc in accelerators.items()}
        ideal = minimal_region_capacity(tiles, regions)
        # The widest design must span at most the whole grid, whatever the
        # scale — otherwise it could never be served at all.
        floor = -(-max(tiles.values()) // regions)
        capacity = max(math.ceil(ideal * fabric_scale), floor)
        # Near-square geometry: rows ~ sqrt of the total tile budget, then
        # whole columns per band so region bits stay tile-aligned.
        rows = max(1, math.ceil(math.sqrt(capacity * regions)))
        cols_per_band = max(1, -(-capacity // rows))
        fabric = FabricInstance(spec, columns=regions * cols_per_band, rows=rows)
        capacities = fabric.region_tile_capacities(regions)
        assert len(set(capacities)) == 1 and capacities[0] >= capacity
        images = {
            name: Bitstream.generate(acc.spec.design, fabric, regions=regions)
            for name, acc in accelerators.items()
        }
        return cls(regions=regions, fabric=fabric, capacities=capacities,
                   images=images, tiles=tiles, fabric_scale=fabric_scale)
