"""Region allocator and pack/place-lite for partial reconfiguration.

A fabric is an array of K equal-capacity *regions* (contiguous column
bands, each with its own configuration chain — the PRGA structure).  A
design occupies a *contiguous span* of regions big enough for its tile
footprint; hot-swapping a design reprograms only its span.

Everything here is deterministic and ``PYTHONHASHSEED``-independent:
ordering uses tile counts, CRC-32 of names and lexicographic names — never
``hash()`` — and the allocator iterates plain lists, never set/dict order.

Two layers:

* :class:`RegionAllocator` — the free-list/occupancy state machine for one
  fabric: first-fit contiguous placement, LRU-span eviction of unpinned
  residents, pin counts protecting in-flight spans, and fragmentation
  accounting.
* :func:`pack_designs` — first-fit-decreasing static packing of a design
  set onto the grid (used for the initial layout and by the property
  tests as the reference packing).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class PlacementError(RuntimeError):
    """Raised when a design cannot be placed on the region grid."""


def _span_needed(tiles: int, capacity: int) -> int:
    """Contiguous regions a ``tiles``-tile design needs at ``capacity``."""
    if tiles < 1:
        raise PlacementError(f"a design needs at least one tile, got {tiles}")
    return max(1, -(-tiles // capacity))


def sort_key(name: str, tiles: int) -> Tuple[int, int, str]:
    """Deterministic decreasing-size ordering with a CRC-32 tiebreak.

    Bigger designs first; equal sizes break on CRC-32 of the name, then
    the name itself — stable across processes and ``PYTHONHASHSEED``.
    """
    return (-tiles, zlib.crc32(name.encode()), name)


@dataclass(frozen=True)
class Placement:
    """Where a design landed: regions ``start .. start + count - 1``."""

    name: str
    start: int
    count: int
    #: Designs the allocator evicted to make room (in eviction order).
    evicted: Tuple[str, ...] = ()

    @property
    def regions(self) -> Tuple[int, ...]:
        return tuple(range(self.start, self.start + self.count))


class RegionAllocator:
    """Occupancy, pinning and LRU eviction for one fabric's region grid.

    Regions are equal-capacity (the planner guarantees it); occupancy is a
    per-region occupant name (or ``None``), pins are per-design counts, and
    recency is a logical clock bumped on every placement/touch — no wall
    clock, no hash iteration, so replays are exact.
    """

    def __init__(self, capacities: Sequence[int]) -> None:
        capacities = tuple(capacities)
        if not capacities:
            raise PlacementError("a region grid needs at least one region")
        if any(cap < 1 for cap in capacities):
            raise PlacementError(f"region capacities must be positive: {capacities}")
        if len(set(capacities)) != 1:
            raise PlacementError(
                f"regions must have equal capacity, got {capacities}")
        self.capacities = capacities
        self.capacity = capacities[0]
        self._occupants: List[Optional[str]] = [None] * len(capacities)
        #: name -> the span it occupies; kept in step with ``_occupants``.
        self._spans: Dict[str, Tuple[int, ...]] = {}
        self._pins: Dict[str, int] = {}
        self._last_used: Dict[str, int] = {}
        self._clock = 0
        self.evictions = 0
        self.placements = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def regions(self) -> int:
        return len(self._occupants)

    @property
    def occupants(self) -> Tuple[Optional[str], ...]:
        return tuple(self._occupants)

    def residents(self) -> Tuple[str, ...]:
        """Distinct resident designs in region order."""
        seen: List[str] = []
        for name in self._occupants:
            if name is not None and name not in seen:
                seen.append(name)
        return tuple(seen)

    def lookup(self, name: str) -> Optional[Tuple[int, ...]]:
        """The contiguous span ``name`` occupies, or ``None``."""
        return self._spans.get(name)

    def is_pinned(self, name: str) -> bool:
        return self._pins.get(name, 0) > 0

    def span_needed(self, tiles: int) -> int:
        return _span_needed(tiles, self.capacity)

    def free_regions(self) -> int:
        return sum(1 for occupant in self._occupants if occupant is None)

    def _free_spans(self) -> List[Tuple[int, int]]:
        """Maximal runs of free regions as ``(start, length)`` pairs."""
        spans: List[Tuple[int, int]] = []
        run_start = None
        for index, occupant in enumerate(self._occupants):
            if occupant is None:
                if run_start is None:
                    run_start = index
            elif run_start is not None:
                spans.append((run_start, index - run_start))
                run_start = None
        if run_start is not None:
            spans.append((run_start, len(self._occupants) - run_start))
        return spans

    def fragmentation(self) -> float:
        """1 − (largest free run / total free regions); 0 when unfragmented.

        A fabric with 3 free regions in one run is usable by a 3-region
        design (fragmentation 0); the same 3 regions scattered are not
        (fragmentation 2/3).  Fully occupied grids report 0.
        """
        free = self.free_regions()
        if free == 0:
            return 0.0
        largest = max(length for _, length in self._free_spans())
        return 1.0 - largest / free

    def can_place(self, tiles: int, name: str = "") -> bool:
        """Whether ``place`` would succeed right now (eviction allowed)."""
        try:
            self._choose_span(name, self.span_needed(tiles), probe=True)
        except PlacementError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def place(self, name: str, tiles: int) -> Placement:
        """Place ``name`` on a contiguous span, evicting LRU if needed.

        First fit over free spans; when nothing free fits, repeatedly evict
        the least-recently-used *unpinned* resident until a span opens up.
        Raises :class:`PlacementError` when the design is wider than the
        grid or every potential victim is pinned.
        """
        if self.lookup(name) is not None:
            raise PlacementError(f"{name!r} is already resident")
        count = self.span_needed(tiles)
        start, evicted = self._choose_span(name, count, probe=False)
        span = tuple(range(start, start + count))
        for index in span:
            self._occupants[index] = name
        self._spans[name] = span
        self._clock += 1
        self._last_used[name] = self._clock
        self.placements += 1
        return Placement(name=name, start=start, count=count,
                         evicted=tuple(evicted))

    def _choose_span(self, name: str, count: int,
                     probe: bool) -> Tuple[int, List[str]]:
        if count > self.regions:
            raise PlacementError(
                f"{name or 'design'} needs {count} regions, grid has "
                f"{self.regions}")
        occupants = list(self._occupants) if probe else self._occupants
        evicted: List[str] = []
        while True:
            run_start, run = None, 0
            for index, occupant in enumerate(occupants):
                if occupant is None:
                    if run_start is None:
                        run_start = index
                    run += 1
                    if run == count:
                        return run_start, evicted
                else:
                    run_start, run = None, 0
            victim = self._lru_victim(occupants)
            if victim is None:
                raise PlacementError(
                    f"no room for {name or 'design'}: {count} regions needed "
                    f"and every resident is pinned")
            evicted.append(victim)
            for index in self._spans[victim]:
                occupants[index] = None
            if not probe:
                del self._spans[victim]
                self._last_used.pop(victim, None)
                self.evictions += 1

    def _lru_victim(self, occupants: Sequence[Optional[str]]) -> Optional[str]:
        """Least-recently-used unpinned resident, or ``None``."""
        victim, victim_used = None, None
        for name in occupants:
            if name is None or self._pins.get(name, 0) > 0:
                continue
            used = self._last_used.get(name, 0)
            if victim_used is None or used < victim_used:
                victim, victim_used = name, used
        return victim

    def evict(self, name: str) -> None:
        """Remove ``name`` from the grid (explicit scrub/teardown path)."""
        if self.lookup(name) is None:
            raise PlacementError(f"{name!r} is not resident")
        if self.is_pinned(name):
            raise PlacementError(f"{name!r} is pinned; cannot evict")
        for index in self._spans.pop(name):
            self._occupants[index] = None
        self._last_used.pop(name, None)
        self.evictions += 1

    def pin(self, name: str) -> None:
        """Protect ``name``'s span from eviction (one pin per in-flight use)."""
        if self.lookup(name) is None:
            raise PlacementError(f"cannot pin non-resident {name!r}")
        self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, name: str) -> None:
        """Drop one pin; tolerant of designs already evicted/scrubbed."""
        count = self._pins.get(name, 0)
        if count <= 1:
            self._pins.pop(name, None)
        else:
            self._pins[name] = count - 1

    def touch(self, name: str) -> None:
        """Mark ``name`` as just used (LRU recency bump)."""
        if self.lookup(name) is None:
            raise PlacementError(f"cannot touch non-resident {name!r}")
        self._clock += 1
        self._last_used[name] = self._clock

    def reset(self) -> None:
        """Clear all occupancy/pins (fabric heal or power cycle)."""
        self._occupants = [None] * self.regions
        self._spans.clear()
        self._pins.clear()
        self._last_used.clear()


def pack_designs(designs: Dict[str, int],
                 capacities: Sequence[int]) -> Dict[str, Placement]:
    """First-fit-decreasing static packing of ``{name: tiles}`` onto a grid.

    Deterministic: designs sorted by :func:`sort_key` (biggest first,
    CRC-32 then name tiebreak), placed first-fit without eviction.  Designs
    that do not fit are simply left out — at serve time they hot-swap in
    via :meth:`RegionAllocator.place`.
    """
    allocator = RegionAllocator(capacities)
    placements: Dict[str, Placement] = {}
    for name, tiles in sorted(designs.items(),
                              key=lambda item: sort_key(item[0], item[1])):
        span = allocator.span_needed(tiles)
        if span > allocator.regions:
            continue
        free = allocator._free_spans()
        if any(length >= span for _, length in free):
            placements[name] = allocator.place(name, tiles)
    return placements
